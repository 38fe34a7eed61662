module Prng = Ifp_util.Prng

type cls = Kill_runner | Tear_cache_entry

let all_classes = [ Kill_runner; Tear_cache_entry ]

let class_name = function
  | Kill_runner -> "kill_runner"
  | Tear_cache_entry -> "tear_cache_entry"

let class_of_name s =
  List.find_opt (fun c -> class_name c = s) all_classes

type plan = { cls : cls; seed : int64 }

let plan cls ~seed = { cls; seed }

let fingerprint p =
  Printf.sprintf "chaos:%s;seed=%Ld" (class_name p.cls) p.seed

(* one PRNG per plan; the class index keeps different classes on the
   same seed decorrelated, as Fault.default_plan does *)
let rng_of p =
  let ci = match p.cls with Kill_runner -> 1L | Tear_cache_entry -> 2L in
  Prng.create (Prng.mix2 p.seed ci)

let kill_point p ~jobs =
  if jobs <= 1 then 1 else 1 + Prng.int (rng_of p) jobs

let arm_kill ~after =
  let count = Atomic.make 0 in
  fun _ ->
    if Atomic.fetch_and_add count 1 + 1 >= max 1 after then
      (* SIGKILL, not exit: nothing may drain, flush or at_exit — this
         is the power-loss case resume-from-cache exists for *)
      Unix.kill (Unix.getpid ()) Sys.sigkill

let ftruncate_file path len =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () -> Unix.ftruncate fd len)

let rec find_files ~suffix path =
  match Sys.is_directory path with
  | exception Sys_error _ -> []
  | true ->
    let sub = Sys.readdir path in
    Array.sort compare sub;
    Array.to_list sub
    |> List.concat_map (fun f -> find_files ~suffix (Filename.concat path f))
  | false -> if Filename.check_suffix path suffix then [ path ] else []

let tear_cache_entry p ~dir =
  match find_files ~suffix:".result" dir with
  | [] -> None
  | files ->
    let rng = rng_of p in
    let path = List.nth files (Prng.int rng (List.length files)) in
    let size = (Unix.stat path).Unix.st_size in
    (* an interior offset: never empty the file entirely (that is just a
       short header, a duller wound than a checksum-failing payload) *)
    let cut = if size <= 2 then 1 else 1 + Prng.int rng (size - 1) in
    (try
       ftruncate_file path cut;
       Some path
     with Unix.Unix_error _ -> None)
