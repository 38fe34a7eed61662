(* Layer microbenchmarks: fixed inputs, independent of the workload, so
   every traced run reports the same per-call costs for the layers whose
   hot paths are too short to time one call at a time.

   Each number is the best, over [reps] timed loops, of the mean time
   per call in one loop; {!all} returns [(metric, unit, value)]. *)

open Core

let best_per_call ~reps ~n f =
  let best = ref infinity in
  for _ = 1 to reps do
    let t0 = Unix.gettimeofday () in
    for i = 1 to n do
      ignore (Sys.opaque_identity (f i))
    done;
    best := Float.min !best ((Unix.gettimeofday () -. t0) /. float_of_int n)
  done;
  !best

(* ---- metadata: promote per scheme ------------------------------------- *)

let tenv_s =
  let t =
    Ctype.declare Ctype.empty_tenv
      {
        Ctype.sname = "NestedTy";
        fields =
          [ { fname = "v3"; fty = Ctype.I32 }; { fname = "v4"; fty = Ctype.I32 } ];
      }
  in
  Ctype.declare t
    {
      Ctype.sname = "S";
      fields =
        [
          { fname = "v1"; fty = Ctype.I32 };
          { fname = "array"; fty = Ctype.Array (Ctype.Struct "NestedTy", 2) };
          { fname = "v5"; fty = Ctype.I32 };
        ];
    }

let ty_s = Ctype.Struct "S"

(* a metadata instance over fresh memory, laid out as the VM lays it out *)
let fresh_meta () =
  let mem = Memory.create () in
  Memory.map mem ~base:Memmap.layout_region_base ~size:Memmap.layout_region_size;
  Memory.map mem ~base:Memmap.global_table_base
    ~size:(Memmap.global_table_entries * 16);
  let meta =
    Meta.create ~memory:mem ~mac_key:0xFEEDL
      ~layout_region:(Memmap.layout_region_base, Memmap.layout_region_size)
      ~global_table:(Memmap.global_table_base, Memmap.global_table_entries)
      ()
  in
  (mem, meta)

(* one pointer per metadata scheme, plus a two-level subobject narrow and
   an untagged legacy pointer *)
let promote_ns ~reps ~n =
  let mem, meta = fresh_meta () in
  Memory.map mem ~base:0x10000L ~size:(1 lsl 20);
  let lt = Meta.intern_layout meta tenv_s ty_s in
  let local = Meta.Local_offset.register meta ~base:0x10000L ~size:24 ~layout_ptr:lt in
  let local_narrow =
    Insn.ifpidx (Insn.ifpadd local ~delta:12L ~bounds:Bounds.no_bounds) 3
  in
  Meta.Subheap.set_creg meta 0
    (Some { Meta.Subheap.block_size_log2 = 12; metadata_offset = 0L });
  Meta.Subheap.write_block_metadata meta ~creg:0 ~block_base:0x20000L
    ~slot_start:32 ~slot_end:4064 ~slot_size:32 ~obj_size:24 ~layout_ptr:lt;
  let subheap = Meta.Subheap.tag_pointer ~creg:0 ~addr:0x20040L in
  let global =
    Option.get (Meta.Global_table.register meta ~base:0x30000L ~size:4096 ~layout_ptr:0L)
  in
  List.map
    (fun (scheme, p) ->
      ( "metadata.promote_ns." ^ scheme,
        "ns",
        1e9 *. best_per_call ~reps ~n (fun _ -> Promote.run meta p) ))
    [
      ("local_offset", local);
      ("local_offset_narrow", local_narrow);
      ("subheap", subheap);
      ("global_table", global);
      ("legacy", 0x4000L);
    ]

(* ---- allocators: one malloc + free of a typed 24-byte object ---------- *)

let malloc_free_ns ~reps ~n =
  let heap_size = 1 lsl Memmap.heap_size_log2 in
  let wrapped =
    let mem, meta = fresh_meta () in
    Wrapped_alloc.create ~meta ~tenv:tenv_s
      ~base_alloc:
        (Baseline_alloc.create ~memory:mem ~base:Memmap.heap_base ~size:heap_size)
  in
  let subheap =
    let mem, meta = fresh_meta () in
    Subheap_alloc.create ~meta ~tenv:tenv_s ~memory:mem ~base:Memmap.heap_base
      ~size_log2:Memmap.heap_size_log2
  in
  List.map
    (fun (name, (a : Alloc.t)) ->
      ( "alloc.malloc_free_ns." ^ name,
        "ns",
        1e9
        *. best_per_call ~reps ~n (fun _ ->
               let p, _ = a.malloc ~size:24 ~cty:(Some ty_s) in
               a.free p) ))
    [
      ( "baseline",
        Baseline_alloc.create ~memory:(Memory.create ()) ~base:Memmap.heap_base
          ~size:heap_size );
      ("wrapped", wrapped);
      ("subheap", subheap);
    ]

(* ---- machine: cache-model probe and simulated-memory word access ------ *)

(* 64 KiB of 8-byte strides: twice the modelled 32 KiB L1, so the probe
   stream mixes hits and misses *)
let addrs = Array.init 8192 (fun i -> Int64.of_int (0x10000 + (i * 8)))

let machine_ns ~reps ~n =
  let cache = Cache.create () in
  let mem = Memory.create () in
  Memory.map mem ~base:0x10000L ~size:(1 lsl 16);
  [
    ( "machine.cache_access_ns",
      "ns",
      1e9
      *. best_per_call ~reps ~n (fun i ->
             Cache.access cache addrs.(i land 8191) Cache.Load) );
    ( "machine.mem_access_ns",
      "ns",
      1e9
      *. best_per_call ~reps ~n (fun i ->
             let a = addrs.(i land 8191) in
             Memory.write_u64 mem a (Memory.read_u64 mem a)) );
  ]

(* ---- compiler: each front-end stage over a fixed generated corpus ----- *)

let compiler_us ~reps ~programs =
  let sources =
    List.init programs (fun k ->
        Ifp_fuzz.Gen.source ~knobs:Ifp_fuzz.Gen.default ~seed:(Int64.of_int (k + 1)) ())
  in
  let parsed = List.map Parser.parse sources in
  let instrumented = List.map (fun p -> fst (Instrument.run p)) parsed in
  let per_program stage inputs =
    1e6
    *. best_per_call ~reps ~n:1 (fun _ -> List.iter (fun x -> ignore (stage x)) inputs)
    /. float_of_int programs
  in
  [
    ("compiler.parse_us", "us", per_program Parser.parse sources);
    ("compiler.typecheck_us", "us", per_program Typecheck.check_program parsed);
    ("compiler.instrument_us", "us", per_program Instrument.run parsed);
    ("compiler.resolve_us", "us", per_program Resolve.run instrumented);
  ]

let all ~smoke =
  let reps = if smoke then 1 else 5 and scale = if smoke then 100 else 1 in
  compiler_us ~reps ~programs:(if smoke then 5 else 50)
  @ promote_ns ~reps ~n:(200_000 / scale)
  @ malloc_free_ns ~reps ~n:(100_000 / scale)
  @ machine_ns ~reps ~n:(1_000_000 / scale)
