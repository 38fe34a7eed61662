(* Shared plumbing for the command-line tools: the Arg driver, the
   campaign flags, signal-driven stop flags, the event log, and the exit
   path. *)

let parse ~usage specs anon =
  let help = Arg.Unit (fun () -> raise (Arg.Help "")) in
  let specs =
    Arg.align
      (specs
      @ [
          ("-h", help, " Print this help and exit");
          ("--help", help, " Print this help and exit");
          (* Arg's own spelling, which these tools never accepted *)
          ("-help", Arg.Unit (fun () -> raise (Arg.Bad "unknown option '-help'")), "");
        ])
  in
  try Arg.parse_argv Sys.argv specs anon usage with
  | Arg.Help _ ->
    print_string (Arg.usage_string specs usage);
    exit 0
  | Arg.Bad msg ->
    prerr_string msg;
    exit 1

let nat f =
  Arg.Int
    (fun n ->
      if n < 0 then raise (Arg.Bad (Printf.sprintf "negative count %d" n)) else f n)

let int64 f =
  Arg.String
    (fun s ->
      match Int64.of_string_opt s with
      | Some n -> f n
      | None -> raise (Arg.Bad (Printf.sprintf "bad integer %S" s)))

let load_minic path =
  match Ifp_compiler.Frontend.load path with
  | Ok loaded -> loaded
  | Error m ->
    prerr_endline m;
    exit 1

type campaign = {
  mutable workers : int;
  mutable cache_dir : string option;
  mutable log_path : string option;
}

let campaign_specs c =
  let default = function Some v -> "default " ^ v | None -> "default none" in
  let jobs = nat (fun n -> c.workers <- max 1 n) in
  [
    ("-j", jobs, Printf.sprintf "N Worker domains (default %d)" c.workers);
    ("--jobs", jobs, "N Same as -j");
    ( "--cache-dir",
      Arg.String (fun d -> c.cache_dir <- Some d),
      Printf.sprintf "DIR Result cache, also the resume point (%s)" (default c.cache_dir) );
    ("--no-cache", Arg.Unit (fun () -> c.cache_dir <- None), " Run without a result cache");
    ( "--log",
      Arg.String (fun p -> c.log_path <- Some p),
      Printf.sprintf "FILE JSONL event log (%s)" (default c.log_path) );
    ("--no-log", Arg.Unit (fun () -> c.log_path <- None), " Write no event log");
  ]

let install_interrupt () =
  let flag = Atomic.make false in
  List.iter
    (fun signum ->
      try
        Sys.set_signal signum
          (Sys.Signal_handle (fun _ -> Atomic.set flag true))
      with Invalid_argument _ | Sys_error _ -> ())
    [ Sys.sigint; Sys.sigterm ];
  fun () -> Atomic.get flag

let open_log ~path =
  match path with None -> Events.null | Some path -> Events.create ~path

let resume_hint = function
  | Some _ -> "re-run the same command (same --cache-dir) to resume"
  | None -> "nothing was kept (no cache): a re-run starts over"

let finish ?hint ~log ~interrupted () =
  Events.close log;
  if interrupted then (
    Option.iter prerr_endline hint;
    (* 130 = 128 + SIGINT, the conventional "killed by Ctrl-C" status;
       we use it for SIGTERM drains too — callers only need nonzero *)
    Stdlib.exit 130)
  else Stdlib.exit 0
