module Memory = Ifp_machine.Memory
module Meta = Ifp_metadata.Meta
module Mac = Ifp_metadata.Mac
module Tag = Ifp_isa.Tag
module Bounds = Ifp_isa.Bounds
module Trap = Ifp_isa.Trap
module Prng = Ifp_util.Prng
module Bits = Ifp_util.Bits

type fault_class =
  | Tag_flip
  | Bounds_corrupt
  | Meta_tamper
  | Mac_flip
  | Heap_smash
  | Stale_meta
  | Uaf_use
  | Double_free

(* the temporal classes sit at the end: campaign seed mixing is
   index-based, so appending keeps every pre-existing plan unchanged *)
let all_classes =
  [
    Tag_flip;
    Bounds_corrupt;
    Meta_tamper;
    Mac_flip;
    Heap_smash;
    Stale_meta;
    Uaf_use;
    Double_free;
  ]

let class_name = function
  | Tag_flip -> "tag_flip"
  | Bounds_corrupt -> "bounds_corrupt"
  | Meta_tamper -> "meta_tamper"
  | Mac_flip -> "mac_flip"
  | Heap_smash -> "heap_smash"
  | Stale_meta -> "stale_meta"
  | Uaf_use -> "uaf_use"
  | Double_free -> "double_free"

let class_of_name s =
  List.find_opt (fun c -> String.equal (class_name c) s) all_classes

(* Poisoned_dereference appears everywhere a promote can poison the
   pointer instead of trapping immediately; Heap_smash may legitimately
   surface as any trap, depending on what the bytes hit. *)
let expected_trap cls (trap : Trap.t) =
  match (cls, trap) with
  | Heap_smash, _ -> true
  | Tag_flip, _ -> true
  | Bounds_corrupt, (Trap.Bounds_violation _ | Trap.Poisoned_dereference _) -> true
  | ( Meta_tamper,
      ( Trap.Mac_mismatch _ | Trap.Invalid_metadata _ | Trap.Poisoned_dereference _
      | Trap.Bounds_violation _ ) ) ->
    true
  | Mac_flip, (Trap.Mac_mismatch _ | Trap.Invalid_metadata _ | Trap.Poisoned_dereference _)
    ->
    true
  | Stale_meta, _ ->
    (* wiped metadata can surface as any of the five traps, depending on
       what the zeroed record aliases *)
    true
  | (Uaf_use | Double_free), _ ->
    (* temporal mode pins these to Use_after_free / Write_to_freed /
       Double_free at the stale promote or re-free; outside it the
       injection is a spatial wipe and, like [Stale_meta], any trap is a
       legitimate detection *)
    true
  | (Bounds_corrupt | Meta_tamper | Mac_flip), _ -> false

type trigger =
  | Nth_promote of int
  | Nth_access of int
  | Addr_window of { lo : int64; hi : int64; nth : int }

type plan = { cls : fault_class; trigger : trigger; seed : int64 }

(* Trigger ranges are tuned to the victim programs of {!Victim}: promote
   triggers land within the first few rounds of the access loop (so the
   corrupted state is exercised many times afterwards), access triggers
   within the setup/first-round window. *)
let default_plan cls ~seed =
  let rng = Prng.create (Prng.mix2 seed 0x1FA7_0001L) in
  let trigger =
    match cls with
    | Bounds_corrupt | Heap_smash -> Nth_access (Prng.int_in rng 8 400)
    | Tag_flip | Meta_tamper | Mac_flip | Stale_meta | Uaf_use | Double_free ->
      Nth_promote (Prng.int_in rng 4 48)
  in
  { cls; trigger; seed }

let trigger_fingerprint = function
  | Nth_promote n -> Printf.sprintf "promote:%d" n
  | Nth_access n -> Printf.sprintf "access:%d" n
  | Addr_window { lo; hi; nth } -> Printf.sprintf "window:0x%Lx-0x%Lx:%d" lo hi nth

let fingerprint p =
  Printf.sprintf "%s@%s#%Ld" (class_name p.cls) (trigger_fingerprint p.trigger)
    p.seed

type t = {
  plan : plan;
  rng : Prng.t;
  mem : Memory.t;
  heap_base : int64;
  mutable meta : Meta.t option;
  mutable promotes : int;
  mutable accesses : int;
  mutable window_hits : int;
  mutable fired : bool;
  mutable log : string list; (* reversed *)
}

let create plan ~mem ~heap_base =
  {
    plan;
    rng = Prng.create (Prng.mix2 plan.seed 0xFA17_0002L);
    mem;
    heap_base;
    meta = None;
    promotes = 0;
    accesses = 0;
    window_hits = 0;
    fired = false;
    log = [];
  }

let attach_meta t m = t.meta <- Some m
let fired t = t.fired
let injections t = List.rev t.log

let note t site detail =
  t.fired <- true;
  t.log <- (site ^ ":" ^ detail) :: t.log

(* ---- fault actions ------------------------------------------------- *)

(* Flip one bit of the field that locates the object metadata, so the
   promote hardware looks somewhere it shouldn't: granule offset for
   local-offset pointers, control-register index for subheap, table
   index for global-table. *)
let flip_tag t ptr =
  let bit =
    match Tag.scheme ptr with
    | Tag.Local_offset -> 54 + Prng.int t.rng 6
    | Tag.Subheap -> 56 + Prng.int t.rng 4
    | Tag.Global_table | Tag.Legacy -> 48 + Prng.int t.rng 12
  in
  (Int64.logxor ptr (Int64.shift_left 1L bit), bit)

(* The live metadata record belonging to a tagged pointer, if the
   registry still holds it. *)
let entry_of_ptr m ptr =
  let find a =
    List.find_opt
      (fun (e : Meta.live_entry) -> Int64.equal e.meta_addr a)
      (Meta.live_entries m)
  in
  match Tag.scheme ptr with
  | Tag.Local_offset -> find (Tag.metadata_addr_local_offset ptr)
  | Tag.Subheap -> (
    match Meta.Subheap.get_creg m (Tag.creg_index ptr) with
    | None -> None
    | Some c ->
      let block =
        Bits.align_down64 (Tag.addr ptr) (1 lsl c.Meta.Subheap.block_size_log2)
      in
      find (Int64.add block c.Meta.Subheap.metadata_offset))
  | Tag.Global_table | Tag.Legacy -> None

(* Target for a metadata-class fault at a promote of [ptr]: prefer the
   promoted pointer's own record (detection at this very promote);
   otherwise a seeded pick among the live records. *)
let pick_entry t ~ptr ~need_mac =
  match t.meta with
  | None -> None
  | Some m -> (
    let usable (e : Meta.live_entry) = (not need_mac) || e.mac_off <> None in
    match entry_of_ptr m ptr with
    | Some e when usable e -> Some (m, e)
    | _ -> (
      match List.filter usable (Meta.live_entries m) with
      | [] -> None
      | es ->
        let arr = Array.of_list es in
        Some (m, arr.(Prng.int t.rng (Array.length arr)))))

(* MAC-covered payload bytes per record layout (never the MAC itself —
   that is [Mac_flip]'s job — and never the un-MACed subheap flags). *)
let payload_bytes (e : Meta.live_entry) =
  match e.scheme with
  | Meta.Scheme_local_offset -> [| 0; 1; 8; 9; 10; 11; 12; 13; 14; 15 |]
  | Meta.Scheme_subheap -> Array.init 24 Fun.id
  | Meta.Scheme_global_table -> Array.init 16 Fun.id

let tamper_entry t m (e : Meta.live_entry) =
  let cands = payload_bytes e in
  let off = cands.(Prng.int t.rng (Array.length cands)) in
  let mask = 1 lsl Prng.int t.rng 8 in
  Memory.xor_u8 (Meta.memory m) (Int64.add e.meta_addr (Int64.of_int off)) mask;
  Printf.sprintf "byte+%d^0x%02x@0x%Lx" off mask e.meta_addr

let flip_mac t m (e : Meta.live_entry) =
  match e.mac_off with
  | None -> assert false (* filtered by [pick_entry ~need_mac:true] *)
  | Some mo ->
    let bit = Prng.int t.rng Mac.bits in
    Memory.xor_u8 (Meta.memory m)
      (Int64.add e.meta_addr (Int64.of_int (mo + (bit / 8))))
      (1 lsl (bit mod 8));
    Printf.sprintf "bit%d@0x%Lx" bit e.meta_addr

(* Blunt heap corruption: xor a handful of mapped bytes in the first
   pages of the heap (the victims allocate eagerly, so this window is
   always populated). *)
let smash_window = 8192
let smash_spots = 4

let smash t =
  let hits = ref [] in
  for _ = 1 to smash_spots do
    let addr =
      Int64.add t.heap_base (Int64.of_int (Prng.int t.rng smash_window))
    in
    let mask = 1 + Prng.int t.rng 255 in
    if Memory.is_mapped t.mem addr then begin
      Memory.xor_u8 t.mem addr mask;
      hits := Printf.sprintf "0x%Lx^0x%02x" addr mask :: !hits
    end
  done;
  String.concat "," (List.rev !hits)

(* ---- hooks --------------------------------------------------------- *)

let due_promote t =
  (not t.fired)
  && match t.plan.trigger with Nth_promote n -> t.promotes >= n | _ -> false

let on_promote t ptr =
  t.promotes <- t.promotes + 1;
  if not (due_promote t) then ptr
  else
    match t.plan.cls with
    | Tag_flip ->
      if Tag.scheme ptr = Tag.Legacy || Tag.is_null ptr then ptr
      else begin
        let ptr', bit = flip_tag t ptr in
        note t "promote"
          (Printf.sprintf "tag-flip bit%d 0x%Lx->0x%Lx" bit ptr ptr');
        ptr'
      end
    | Meta_tamper -> (
      match pick_entry t ~ptr ~need_mac:false with
      | None -> ptr
      | Some (m, e) ->
        note t "promote" ("meta-tamper " ^ tamper_entry t m e);
        ptr)
    | Mac_flip -> (
      match pick_entry t ~ptr ~need_mac:true with
      | None -> ptr
      | Some (m, e) ->
        note t "promote" ("mac-flip " ^ flip_mac t m e);
        ptr)
    | Stale_meta -> (
      match pick_entry t ~ptr ~need_mac:false with
      | None -> ptr
      | Some (m, e) ->
        Meta.wipe_entry m e;
        note t "promote" (Printf.sprintf "stale-meta wiped@0x%Lx" e.meta_addr);
        ptr)
    (* Temporal classes: the injector performs the free the program never
       issued ([Uaf_use]) or issues first ([Double_free]) by retiring the
       record's epoch; the program keeps using — and, for the temporal
       victim, later re-freeing — the pointer. In temporal mode the
       record stays valid-but-stale and the promote/free hardware traps;
       outside it [Meta.mark_freed] degenerates to the spatial free model
       (record wiped), so the same plan measures what spatial-only IFP
       misses. Only a [`Freed_ok] transition counts as fired, so the
       trigger re-arms until it finds a record still in its live epoch. *)
    | Uaf_use | Double_free -> (
      match pick_entry t ~ptr ~need_mac:false with
      | None -> ptr
      | Some (m, e) ->
        (match Meta.mark_freed m e with
        | `Freed_ok ->
          let what =
            if t.plan.cls = Uaf_use then "uaf-freed" else "double-free-armed"
          in
          note t "promote" (Printf.sprintf "%s@0x%Lx" what e.meta_addr)
        | `Already_freed | `Invalid -> ());
        ptr)
    | Bounds_corrupt | Heap_smash -> ptr

let due_access t ~addr =
  (not t.fired)
  &&
  match t.plan.trigger with
  | Nth_access n -> t.accesses >= n
  | Addr_window { lo; hi; nth } ->
    if Int64.compare addr lo >= 0 && Int64.compare addr hi < 0 then begin
      t.window_hits <- t.window_hits + 1;
      t.window_hits >= nth
    end
    else false
  | Nth_promote _ -> false

let on_access t ~addr ~size ~bounds =
  t.accesses <- t.accesses + 1;
  if not (due_access t ~addr) then bounds
  else
    match t.plan.cls with
    | Heap_smash ->
      note t "access" ("smash " ^ smash t);
      bounds
    | Bounds_corrupt -> (
      match bounds with
      | Bounds.No_bounds -> bounds (* no bounds register to corrupt *)
      | Bounds.Bounds { lo; hi } ->
        let b' =
          if Prng.bool t.rng then
            (* raise the lower bound above the access *)
            Bounds.make ~lo:(Int64.add addr 1L) ~hi:(Int64.of_int hi)
          else
            (* drop the upper bound below the access end *)
            Bounds.make ~lo:(Int64.of_int lo)
              ~hi:(Int64.add addr (Int64.of_int (size - 1)))
        in
        note t "access"
          (Format.asprintf "bounds-corrupt %a -> %a" Bounds.pp bounds Bounds.pp
             b');
        b')
    | Tag_flip | Meta_tamper | Mac_flip | Stale_meta | Uaf_use | Double_free ->
      bounds
