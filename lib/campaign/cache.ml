module Crc32 = Ifp_util.Crc32

(* v4: the entry header is fixed-layout bytes (see [header_len]),
   checked field by field before anything is unmarshalled, so a crafted
   header cannot crash the reader. Older version directories are never
   read. *)
let format_version = 4

type stats = {
  entries : int;
  bytes : int;
  max_bytes : int option;
  hits : int;
  misses : int;
  stores : int;
  evictions : int;
  evicted_bytes : int;
}

type t = {
  root : string;
  max_bytes : int option;
  (* size accounting + counters; mutated from every engine worker domain
     ([-j N]), hence atomics. [bytes]/[entries] are a best-effort running
     tally re-grounded by each sweep's directory walk, so a concurrent
     process evicting the same directory skews them only until the next
     sweep. *)
  bytes : int Atomic.t;
  entries : int Atomic.t;
  hits : int Atomic.t;
  misses : int Atomic.t;
  stores_n : int Atomic.t;
  evictions : int Atomic.t;
  evicted_bytes : int Atomic.t;
  (* at most one worker domain walks/evicts this cache directory at a
     time *)
  sweep_lock : Mutex.t;
}

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

let is_entry name = Filename.check_suffix name ".result"

(* every live entry under the version dir as (path, mtime, size) *)
let scan_entries t =
  let vdir = version_dir t in
  match Sys.readdir vdir with
  | exception Sys_error _ -> []
  | fanouts ->
    Array.fold_left
      (fun acc fanout ->
        let fdir = Filename.concat vdir fanout in
        match Sys.readdir fdir with
        | exception Sys_error _ -> acc
        | files ->
          Array.fold_left
            (fun acc f ->
              if not (is_entry f) then acc
              else
                let path = Filename.concat fdir f in
                match Unix.stat path with
                | exception Unix.Unix_error _ -> acc
                | st -> (path, st.Unix.st_mtime, st.Unix.st_size) :: acc)
            acc files)
      [] fanouts

let create ?max_bytes ~dir () =
  let t =
    {
      root = dir;
      max_bytes;
      bytes = Atomic.make 0;
      entries = Atomic.make 0;
      hits = Atomic.make 0;
      misses = Atomic.make 0;
      stores_n = Atomic.make 0;
      evictions = Atomic.make 0;
      evicted_bytes = Atomic.make 0;
      sweep_lock = Mutex.create ();
    }
  in
  (* ground the size tally in whatever a previous run left behind *)
  List.iter
    (fun (_, _, size) ->
      Atomic.set t.bytes (Atomic.get t.bytes + size);
      Atomic.set t.entries (Atomic.get t.entries + 1))
    (scan_entries t);
  t

let stats t =
  {
    entries = Atomic.get t.entries;
    bytes = Atomic.get t.bytes;
    max_bytes = t.max_bytes;
    hits = Atomic.get t.hits;
    misses = Atomic.get t.misses;
    stores = Atomic.get t.stores_n;
    evictions = Atomic.get t.evictions;
    evicted_bytes = Atomic.get t.evicted_bytes;
  }

let stats_json t =
  let s = stats t in
  let total = s.hits + s.misses in
  Events.Obj
    [
      ("entries", Events.Int s.entries);
      ("bytes", Events.Int s.bytes);
      ( "max_bytes",
        match s.max_bytes with Some b -> Events.Int b | None -> Events.Null );
      ("hits", Events.Int s.hits);
      ("misses", Events.Int s.misses);
      ("stores", Events.Int s.stores);
      ("evictions", Events.Int s.evictions);
      ("evicted_bytes", Events.Int s.evicted_bytes);
      ( "hit_rate",
        if total = 0 then Events.Null
        else Events.Float (float_of_int s.hits /. float_of_int total) );
    ]

(* LRU sweep: oldest-mtime entries go first until the directory fits the
   budget again. The walk re-grounds the running tally, so drift from
   concurrent writers (another campaign sharing the cache dir) heals
   here. Entries that vanish mid-sweep (a concurrent eviction) are
   skipped, not errors. *)
let sweep t =
  match t.max_bytes with
  | None -> ()
  | Some budget ->
    if Atomic.get t.bytes > budget then begin
      Mutex.lock t.sweep_lock;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.sweep_lock)
        (fun () ->
          let entries = scan_entries t in
          let total =
            List.fold_left (fun acc (_, _, size) -> acc + size) 0 entries
          in
          Atomic.set t.bytes total;
          Atomic.set t.entries (List.length entries);
          if total > budget then begin
            let by_age =
              List.sort
                (fun (_, m1, _) (_, m2, _) -> compare (m1 : float) m2)
                entries
            in
            let over = ref (total - budget) in
            List.iter
              (fun (path, _, size) ->
                if !over > 0 then
                  match Sys.remove path with
                  | () ->
                    over := !over - size;
                    Atomic.set t.bytes (Atomic.get t.bytes - size);
                    Atomic.set t.entries (Atomic.get t.entries - 1);
                    Atomic.incr t.evictions;
                    Atomic.set t.evicted_bytes
                      (Atomic.get t.evicted_bytes + size)
                  | exception Sys_error _ -> ())
              by_age
          end)
    end

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
  | exception Sys_error _ ->
    Atomic.incr t.misses;
    Miss
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
    | Ok result ->
      Atomic.incr t.hits;
      (* LRU touch: a hit refreshes the entry's mtime so the byte-budget
         sweep evicts cold entries first *)
      (try Unix.utimes path 0.0 0.0 with Unix.Unix_error _ -> ());
      Hit result
    | Error (reason, crc_mismatch) ->
      Atomic.incr t.misses;
      (* move the damaged file aside so the next run re-misses cleanly
         instead of re-tripping on it forever; keep it for post-mortem *)
      let qpath = quarantine_path path in
      (match Unix.stat path with
      | st ->
        Atomic.set t.bytes (Atomic.get t.bytes - st.Unix.st_size);
        Atomic.set t.entries (Atomic.get t.entries - 1)
      | exception Unix.Unix_error _ -> ());
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
    (* replacing an entry must not double-count its bytes *)
    let replaced =
      match Unix.stat path with
      | st -> Some st.Unix.st_size
      | exception Unix.Unix_error _ -> None
    in
    let size =
      match Unix.stat tmp with
      | st -> st.Unix.st_size
      | exception Unix.Unix_error _ -> 0
    in
    Sys.rename tmp path;
    Atomic.incr t.stores_n;
    (match replaced with
    | Some old -> Atomic.set t.bytes (Atomic.get t.bytes - old)
    | None -> Atomic.set t.entries (Atomic.get t.entries + 1));
    Atomic.set t.bytes (Atomic.get t.bytes + size);
    sweep t
  with Sys_error _ | Unix.Unix_error _ -> ()
