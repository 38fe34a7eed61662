(* Shared plumbing for the campaign binaries: signal-driven stop flags,
   the event log, and the process-exit contract. *)

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
  else
    (* explicit exit, not a return from main: abandoned watchdog domains
       (Timed_out jobs) may still be running and must not be waited on
       once every output is flushed — see the Engine process-exit
       contract *)
    Stdlib.exit 0
