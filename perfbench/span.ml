(* In-memory span recorder for the traced pass.

   A span is one call into a layer's public function, timed from the
   benchmark's side: name, start, end, the enclosing span and the id of
   the job it belongs to. Spans stay in memory until the run ends, then
   {!write} dumps them as one JSON array. The harness is single-threaded,
   so children of a span never overlap and a span's self time is its
   duration minus the sum of its direct children's durations. *)

type t = {
  id : int;
  name : string;
  job : string;
  parent : int;  (** id of the enclosing span, -1 at top level *)
  start : float;
  stop : float;
}

let spans : t list ref = ref []
let open_ids : int list ref = ref []
let next_id = ref 0

let record ~job name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_ids with p :: _ -> p | [] -> -1 in
  open_ids := id :: !open_ids;
  let start = Unix.gettimeofday () in
  let close () =
    let stop = Unix.gettimeofday () in
    open_ids := List.tl !open_ids;
    spans := { id; name; job; parent; start; stop } :: !spans
  in
  match f () with
  | v ->
    close ();
    v
  | exception e ->
    close ();
    raise e

let duration s = s.stop -. s.start

let add tbl k v =
  Hashtbl.replace tbl k (v +. Option.value (Hashtbl.find_opt tbl k) ~default:0.)

type summary = { total : float; self : float; calls : int }

(* per span name: summed duration, summed self time and call count *)
let summarize () =
  let covered = Hashtbl.create 4096 in
  List.iter
    (fun s -> if s.parent >= 0 then add covered s.parent (duration s))
    !spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self =
        duration s -. Option.value (Hashtbl.find_opt covered s.id) ~default:0.
      in
      let prev =
        Option.value (Hashtbl.find_opt by_name s.name)
          ~default:{ total = 0.; self = 0.; calls = 0 }
      in
      Hashtbl.replace by_name s.name
        {
          total = prev.total +. duration s;
          self = prev.self +. self;
          calls = prev.calls + 1;
        })
    !spans;
  fun name ->
    Option.value (Hashtbl.find_opt by_name name)
      ~default:{ total = 0.; self = 0.; calls = 0 }

let write ~path =
  let open Ifp_campaign.Events in
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity !spans in
  let us t = int_of_float (Float.round (t *. 1e6)) in
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      output_string oc
        (json_to_string
           (Obj
              [
                ("id", Int s.id);
                ("name", String s.name);
                ("job", String s.job);
                ("parent", Int s.parent);
                ("start_us", Int (us (s.start -. t0)));
                ("end_us", Int (us (s.stop -. t0)));
              ])))
    (List.rev !spans);
  output_string oc "\n]\n";
  close_out oc
