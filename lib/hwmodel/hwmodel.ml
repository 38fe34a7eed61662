type stage = Issue | Execute | Frontend_other

type component = {
  cname : string;
  stage : stage;
  luts : int;
  ffs : int;
  feature : feature;
}

and feature =
  | Core_ifp
  | Bounds_registers
  | Ifp_unit_base
  | Layout_walker
  | Scheme of string
  | Lsu_widening
  | Temporal_epoch

type config = {
  bounds_registers : bool;
  layout_walker : bool;
  schemes : string list;
  temporal : bool;
}

let full =
  { bounds_registers = true; layout_walker = true;
    schemes = [ "local"; "subheap"; "global" ]; temporal = false }

let full_temporal = { full with temporal = true }

let vanilla_luts = 37_088
let vanilla_ffs = 21_993

(* Calibrated so the full configuration reproduces the paper's totals:
   59,261 LUTs (+22,173) and 32,545 FFs (+10,552). *)
let components =
  [
    { cname = "bounds register file + forwarding + wb port"; stage = Issue;
      luts = 6430; ffs = 4600; feature = Bounds_registers };
    { cname = "IFP unit (promote control, MAC)"; stage = Execute;
      luts = 2873; ffs = 1400; feature = Ifp_unit_base };
    { cname = "layout-table walker"; stage = Execute;
      luts = 3059; ffs = 900; feature = Layout_walker };
    { cname = "local-offset scheme block"; stage = Execute;
      luts = 980; ffs = 350; feature = Scheme "local" };
    { cname = "subheap scheme block"; stage = Execute;
      luts = 880; ffs = 330; feature = Scheme "subheap" };
    { cname = "global-table scheme block"; stage = Execute;
      luts = 641; ffs = 250; feature = Scheme "global" };
    { cname = "LSU widening (ldbnd/stbnd, implicit checks)"; stage = Execute;
      luts = 4310; ffs = 1600; feature = Lsu_widening };
    { cname = "decode, control registers, perf counters"; stage = Frontend_other;
      luts = 3000; ffs = 1122; feature = Core_ifp };
  ]

(* The temporal extension is deliberately small hardware: a 4-bit epoch
   comparator and freed-flag check folded into the promote path,
   gen-nibble insert/extract in the tag datapath, and the free-path
   read-modify-write that bumps a record's generation. Kept out of
   {!components} so the Fig. 13 table (and its golden) is byte-identical
   with temporal mode merged. *)
let temporal_components =
  [
    { cname = "free-epoch compare + gen extract (promote path)";
      stage = Execute; luts = 210; ffs = 40; feature = Temporal_epoch };
    { cname = "generation bump + freed-flag write (free path)";
      stage = Execute; luts = 260; ffs = 90; feature = Temporal_epoch };
  ]

(* Extra metadata bytes per object, mirrored from lib/metadata: the
   local-offset generation packs into spare layout-word bits and the
   global-table generation into spare row bits (both free); the subheap
   block record doubles from 32 to 64 bytes to hold the per-slot freed
   bitmap (amortized over every slot in the block). *)
let temporal_metadata_bytes =
  [ ("local-offset object", 0); ("subheap block", 32); ("global-table row", 0) ]

let enabled cfg = function
  | Core_ifp | Ifp_unit_base | Lsu_widening -> true
  | Bounds_registers -> cfg.bounds_registers
  | Layout_walker -> cfg.layout_walker
  | Scheme s -> List.mem s cfg.schemes
  | Temporal_epoch -> cfg.temporal

let parts cfg =
  if cfg.temporal then components @ temporal_components else components

let added_luts cfg =
  List.fold_left
    (fun acc c -> if enabled cfg c.feature then acc + c.luts else acc)
    0 (parts cfg)

let added_ffs cfg =
  List.fold_left
    (fun acc c -> if enabled cfg c.feature then acc + c.ffs else acc)
    0 (parts cfg)

let total_luts cfg = vanilla_luts + added_luts cfg
let total_ffs cfg = vanilla_ffs + added_ffs cfg

let lut_increase_pct cfg =
  100.0 *. float_of_int (added_luts cfg) /. float_of_int vanilla_luts

let by_stage cfg =
  List.map
    (fun stage ->
      ( stage,
        List.fold_left
          (fun acc c ->
            if c.stage = stage && enabled cfg c.feature then acc + c.luts
            else acc)
          0 (parts cfg) ))
    [ Issue; Execute; Frontend_other ]

let stage_to_string = function
  | Issue -> "issue"
  | Execute -> "execute"
  | Frontend_other -> "frontend/other"
