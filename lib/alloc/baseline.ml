open Alloc_intf
module Memory = Ifp_machine.Memory

let header_size = 16

(* Tables keyed by an immediate int: a size class or a payload address,
   both multiples of 16 in the common case, so the hash drops those four
   bits. No [caml_hash], no polymorphic compare. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = k lsr 4
end)

(* A size class's bin: its free payloads as a LIFO list, which fixes the
   order of reuse, and beside it the set of the payloads the list holds,
   so the double-free check is one lookup instead of a scan. The list
   never holds a payload twice (that free raises), so the two always
   agree. *)
type bin = { mutable free : int list; held : unit Itbl.t }

type state = {
  mem : Memory.t;
  base : int64;
  limit : int64;
  mutable brk : int64;
  bins : bin Itbl.t; (* size class -> bin *)
  stats : stats;
}

let bin_for st cls =
  match Itbl.find_opt st.bins cls with
  | Some b -> b
  | None ->
    let b = { free = []; held = Itbl.create 16 } in
    Itbl.replace st.bins cls b;
    b

let carve st bytes ~align =
  let payload = Ifp_util.Bits.align_up64 (Int64.add st.brk 16L) align in
  let hdr = Int64.sub payload 16L in
  let top = Int64.add payload (Int64.of_int bytes) in
  if Int64.compare top st.limit > 0 then
    raise (Out_of_memory "baseline heap exhausted");
  st.brk <- top;
  (hdr, payload)

let write_header st ~hdr ~cls ~requested =
  Memory.write_u32 st.mem hdr (Int64.of_int cls);
  Memory.write_u32 st.mem (Int64.add hdr 4L) (Int64.of_int requested);
  Memory.write_u64 st.mem (Int64.add hdr 8L) 0xC0FFEEL

let malloc st ~size ~cty:_ =
  let size = Ifp_util.Bits.imax size 1 in
  let cls = Ifp_util.Bits.align_up size 16 in
  let bin = bin_for st cls in
  let payload, instrs =
    match bin.free with
    | pi :: rest ->
      bin.free <- rest;
      Itbl.remove bin.held pi;
      let p = Int64.of_int pi in
      write_header st ~hdr:(Int64.sub p 16L) ~cls ~requested:size;
      (p, 80)
    | [] ->
      let hdr, payload = carve st cls ~align:16 in
      write_header st ~hdr ~cls ~requested:size;
      (payload, 150)
  in
  note_alloc st.stats ~payload:size ~footprint:st.brk ~base:st.base;
  (payload, cost ~touches:[ (Int64.sub payload 16L, header_size) ] instrs)

let free st ptr =
  let p = Ifp_util.Bits.u48 ptr in
  if Int64.equal p 0L then zero_cost
  else begin
    let hdr = Int64.sub p 16L in
    let cls = Int64.to_int (Memory.read_u32 st.mem hdr) in
    let requested = Int64.to_int (Memory.read_u32 st.mem (Int64.add hdr 4L)) in
    let bin = bin_for st cls in
    (* glibc-style tcache double-free check: the payload is already
       sitting in the bin of the class its header names (a payload whose
       header was rewritten can sit in two bins). Detection is
       deterministic and touches no guest memory, so spatial-only runs
       are unaffected. *)
    let pi = Int64.to_int p in
    if Itbl.mem bin.held pi then raise (Double_free p);
    bin.free <- pi :: bin.free;
    Itbl.add bin.held pi ();
    note_free st.stats ~payload:requested;
    cost ~touches:[ (hdr, header_size) ] 60
  end

let create_raw ~memory ~base ~size =
  Memory.map memory ~base ~size;
  let st =
    {
      mem = memory;
      base;
      limit = Int64.add base (Int64.of_int size);
      brk = base;
      bins = Itbl.create 64;
      stats = fresh_stats ();
    }
  in
  let alloc =
    {
      name = "baseline";
      malloc = (fun ~size ~cty -> malloc st ~size ~cty);
      free = (fun p -> free st p);
      owns =
        (fun p ->
          let a = Ifp_isa.Tag.addr p in
          Int64.compare a st.base >= 0 && Int64.compare a st.limit < 0);
      stats = (fun () -> st.stats);
      extra_stats = (fun () -> [ ("bins", Itbl.length st.bins) ]);
    }
  in
  let raw ~align bytes =
    match carve st bytes ~align with
    | _, payload ->
      note_alloc st.stats ~payload:bytes ~footprint:st.brk ~base:st.base;
      Some payload
    | exception Out_of_memory _ -> None
  in
  (alloc, raw)

let create ~memory ~base ~size = fst (create_raw ~memory ~base ~size)
