module Crc32 = Ifp_util.Crc32

(* v4: the entry header is fixed-layout bytes (see [header_len]),
   checked field by field before anything is unmarshalled, so a crafted
   header cannot crash the reader. Older version directories are never
   read. *)
let format_version = 4

type t = { root : string }

(* Entry layout, all integers big-endian:

     0  magic           8 bytes  "ifpcache"
     8  format version  u32
    12  job digest     32 bytes  (hex, as the file name)
    44  payload length  u32
    48  payload CRC-32  u32
    52  payload         [Marshal] of the [Vm.result]

   [find] checks every header field, and that the file is exactly
   [header_len + length] bytes, before the payload CRC; only a payload
   that passes all of them reaches [Marshal]. *)
let magic = "ifpcache"

let digest_len = 32

let header_len = 52

let encode_header ~digest ~len ~crc =
  let b = Bytes.create header_len in
  Bytes.blit_string magic 0 b 0 8;
  Bytes.set_int32_be b 8 (Int32.of_int format_version);
  Bytes.blit_string digest 0 b 12 digest_len;
  Bytes.set_int32_be b 44 (Int32.of_int len);
  Bytes.set_int32_be b 48 crc;
  Bytes.unsafe_to_string b

let rec mkdir_p path =
  if path = "" || path = "." || path = "/" || Sys.file_exists path then ()
  else (
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755
    with Unix.Unix_error ((EEXIST | EISDIR), _, _) -> ())

let dir t = t.root

let version_dir t =
  Filename.concat t.root (Printf.sprintf "v%d" format_version)

let path_of t digest =
  let fanout =
    if String.length digest >= 2 then String.sub digest 0 2 else "xx"
  in
  Filename.concat
    (Filename.concat (version_dir t) fanout)
    (digest ^ ".result")

let create ~dir () = { root = dir }

type lookup =
  | Hit of Ifp_vm.Vm.result
  | Miss
  | Quarantined of { path : string; reason : string; crc_mismatch : bool }

let quarantine_path path = Filename.remove_extension path ^ ".corrupt"

let read_exact ic n =
  let buf = Bytes.create n in
  match really_input ic buf 0 n with
  | () -> Some (Bytes.unsafe_to_string buf)
  | exception End_of_file -> None

let u32 s pos = Int32.to_int (String.get_int32_be s pos) land 0xffff_ffff

let find t ~digest =
  let path = path_of t digest in
  match open_in_bin path with
  | exception Sys_error _ -> Miss
  | ic ->
    let verdict =
      match read_exact ic header_len with
      | exception Sys_error why -> Error ("unreadable: " ^ why, false)
      | None -> Error ("short header", false)
      | Some h ->
        let len = u32 h 44 in
        let on_disk = in_channel_length ic - header_len in
        if String.sub h 0 8 <> magic then Error ("bad magic", false)
        else if u32 h 8 <> format_version then Error ("version mismatch", false)
        else if String.sub h 12 digest_len <> digest then
          Error ("digest mismatch", false)
        else if on_disk < len then Error ("truncated payload", true)
        else if on_disk > len then Error ("trailing bytes", false)
        else
          match read_exact ic len with
          | exception Sys_error why -> Error ("unreadable: " ^ why, false)
          | None -> Error ("truncated payload", true)
          | Some payload ->
            if Crc32.string payload <> String.get_int32_be h 48 then
              Error ("payload crc mismatch", true)
            else (
              (* trusted from here on: see the trust boundary in
                 cache.mli *)
              match (Marshal.from_string payload 0 : Ifp_vm.Vm.result) with
              | result -> Ok result
              | exception _ -> Error ("undecodable payload", false))
    in
    close_in_noerr ic;
    (match verdict with
    | Ok result -> Hit result
    | Error (reason, crc_mismatch) ->
      (* move the damaged file aside so the next run re-misses cleanly
         instead of re-tripping on it forever; keep it for post-mortem *)
      let qpath = quarantine_path path in
      (try Sys.rename path qpath
       with Sys_error _ -> ( try Sys.remove path with Sys_error _ -> ()));
      Quarantined { path = qpath; reason; crc_mismatch })

let store t ~digest ~job_name:_ result =
  if String.length digest <> digest_len then
    invalid_arg "Cache.store: digest must be 32 characters";
  let path = path_of t digest in
  try
    mkdir_p (Filename.dirname path);
    let tmp =
      Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ())
        (Domain.self () :> int)
    in
    let payload = Marshal.to_string result [] in
    let oc = open_out_bin tmp in
    output_string oc
      (encode_header ~digest ~len:(String.length payload)
         ~crc:(Crc32.string payload));
    output_string oc payload;
    close_out oc;
    Sys.rename tmp path
  with Sys_error _ | Unix.Unix_error _ -> ()
