module Crc32 = Ifp_util.Crc32

type status = Done | Failed of string | Timed_out | Skipped

type entry = {
  digest : string;
  job_name : string;
  status : status;
  result : Ifp_vm.Vm.result option;
}

type replay = { entries : entry list; torn_tail : bool; valid_bytes : int }

type t = {
  path : string;
  mutable oc : out_channel option;  (** [None] after [close] *)
  mutex : Mutex.t;
  seen : (string, entry) Hashtbl.t;
  n_replayed : int;
}

exception Bad_magic of string

(* 16 bytes, newline-terminated so `head -c 16` identifies the file *)
let magic = "ifp-journal-v1.\n"

(* a frame longer than this is garbage, not a record — refuse to
   allocate for it (a torn length word can read as anything) *)
let max_frame = 64 * 1024 * 1024

(* reads exactly [n] bytes or returns None (EOF / short read = torn) *)
let read_exact ic n =
  let buf = Bytes.create n in
  match really_input ic buf 0 n with
  | () -> Some (Bytes.unsafe_to_string buf)
  | exception End_of_file -> None

let replay_channel ~path ic =
  (match read_exact ic (String.length magic) with
  | Some m when m = magic -> ()
  | Some _ -> raise (Bad_magic path)
  | None ->
    (* shorter than the magic: an empty file is a fresh journal, a
       partial header is not a journal we can trust *)
    if in_channel_length ic = 0 then () else raise (Bad_magic path));
  let seen = Hashtbl.create 64 in
  let order = ref [] in
  let valid = ref (min (in_channel_length ic) (String.length magic)) in
  let torn = ref false in
  let rec loop () =
    match read_exact ic 8 with
    | None -> if pos_in ic > !valid then torn := true
    | Some frame -> (
      let len = Int32.to_int (String.get_int32_be frame 0) in
      let crc = String.get_int32_be frame 4 in
      if len <= 0 || len > max_frame then torn := true
      else
        match read_exact ic len with
        | None -> torn := true
        | Some payload ->
          if Crc32.string payload <> crc then torn := true
          else
            match (Marshal.from_string payload 0 : entry) with
            | exception _ -> torn := true
            | e ->
              if not (Hashtbl.mem seen e.digest) then
                order := e.digest :: !order;
              Hashtbl.replace seen e.digest e;
              valid := pos_in ic;
              loop ())
  in
  loop ();
  let entries =
    List.rev_map (fun digest -> Hashtbl.find seen digest) !order
  in
  { entries; torn_tail = !torn; valid_bytes = !valid }

let replay ~path =
  match open_in_bin path with
  | exception Sys_error _ ->
    { entries = []; torn_tail = false; valid_bytes = 0 }
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> replay_channel ~path ic)

let create ~path =
  let oc = open_out_bin path in
  output_string oc magic;
  flush oc;
  { path; oc = Some oc; mutex = Mutex.create (); seen = Hashtbl.create 64;
    n_replayed = 0 }

let open_resume ~path =
  if not (Sys.file_exists path) then
    (create ~path, { entries = []; torn_tail = false; valid_bytes = 0 })
  else
    let rep = replay ~path in
    (* physically drop the torn tail, then append after the last intact
       frame: the file on disk is again a pure prefix of valid frames.
       An empty pre-existing file gets its magic written below. *)
    let oc =
      if rep.valid_bytes = 0 then (
        let oc = open_out_bin path in
        output_string oc magic;
        flush oc;
        Some oc)
      else
        let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
        Unix.ftruncate fd rep.valid_bytes;
        let _ = Unix.lseek fd 0 Unix.SEEK_END in
        Some (Unix.out_channel_of_descr fd)
    in
    let seen = Hashtbl.create 64 in
    List.iter (fun e -> Hashtbl.replace seen e.digest e) rep.entries;
    ( { path; oc; mutex = Mutex.create (); seen;
        n_replayed = List.length rep.entries },
      rep )

let find t ~digest =
  Mutex.lock t.mutex;
  let e = Hashtbl.find_opt t.seen digest in
  Mutex.unlock t.mutex;
  e

let replayed t = t.n_replayed

let append t entry =
  assert (entry.status <> Skipped);
  let payload = Marshal.to_string entry [] in
  let buf = Buffer.create (String.length payload + 8) in
  Buffer.add_int32_be buf (Int32.of_int (String.length payload));
  Buffer.add_int32_be buf (Crc32.string payload);
  Buffer.add_string buf payload;
  Mutex.lock t.mutex;
  Hashtbl.replace t.seen entry.digest entry;
  (match t.oc with
  | None -> ()
  | Some oc -> (
    try
      Buffer.output_buffer oc buf;
      flush oc
    with Sys_error _ -> ()));
  Mutex.unlock t.mutex

let close t =
  Mutex.lock t.mutex;
  (match t.oc with
  | None -> ()
  | Some oc ->
    t.oc <- None;
    (try flush oc with Sys_error _ -> ());
    (try close_out oc with Sys_error _ -> ()));
  Mutex.unlock t.mutex
