(* Shared plumbing for the campaign binaries: signal-driven stop flags,
   journal/log opening under --resume, and the process-exit contract. *)

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

(* "64k" / "100M" / "2G" / plain bytes — for --cache-max-bytes flags *)
let parse_bytes s =
  let s = String.trim s in
  let len = String.length s in
  if len = 0 then None
  else
    let scale, digits =
      match s.[len - 1] with
      | 'k' | 'K' -> (1024, String.sub s 0 (len - 1))
      | 'm' | 'M' -> (1024 * 1024, String.sub s 0 (len - 1))
      | 'g' | 'G' -> (1024 * 1024 * 1024, String.sub s 0 (len - 1))
      | '0' .. '9' -> (1, s)
      | _ -> (0, s)
    in
    if scale = 0 then None
    else
      match int_of_string_opt digits with
      | Some n when n >= 0 -> Some (n * scale)
      | _ -> None

let open_journal ~path ~resume =
  match path with
  | None -> (None, None)
  | Some path ->
    if resume then
      match Journal.open_resume ~path with
      | j, rep -> (Some j, Some rep)
      | exception Journal.Bad_magic file ->
        Printf.eprintf "%s: not a campaign journal, cannot resume from it\n" file;
        Stdlib.exit 1
    else (Some (Journal.create ~path), None)

let open_log ~path ~resume =
  match path with
  | None -> (Events.null, false)
  | Some path ->
    if resume then Events.open_append ~path
    else (Events.create ~path, false)

let emit_resumed log ~replay ~log_truncated =
  match replay with
  | None -> ()
  | Some (rep : Journal.replay) ->
    Events.emit log "campaign_resumed"
      [
        ("replayed", Events.Int (List.length rep.Journal.entries));
        ("journal_torn_tail", Events.Bool rep.Journal.torn_tail);
        ("log_torn_line", Events.Bool log_truncated);
      ]

let finish ?hint ~journal ~log ~interrupted () =
  (* order matters: the journal is the source of truth for resume — it
     goes down first; the log close is best-effort observability *)
  Option.iter Journal.close journal;
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
