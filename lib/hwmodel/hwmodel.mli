(** Hardware area model (paper §5.3, Fig. 13).

    FPGA synthesis is impossible in this environment, so the hardware
    cost evaluation is a structural component model calibrated to the
    paper's Vivado numbers for the modified CVA6: each added hardware
    block carries a LUT and FF cost, attributed to its pipeline stage.
    The model reproduces Fig. 13 (per-stage LUT increase) and supports
    the ablations the paper discusses in §5.3: dropping the layout-table
    walker, dropping the per-GPR bounds register file, or implementing
    fewer metadata schemes.

    Calibration anchors (from the paper): vanilla CVA6 = 37,088 LUTs /
    21,993 FFs; modified = 59,261 LUTs / 32,545 FFs (+60% / +48%); the
    execute stage contributes ~62% of the increase (IFP unit 38%, LSU
    19%); the issue stage ~29% (bounds registers + forwarding); the
    layout-table walker is 3,059 LUTs (36% of the IFP unit) and the three
    scheme blocks together 2,501 LUTs (30%). *)

type stage = Issue | Execute | Frontend_other

type component = {
  cname : string;
  stage : stage;
  luts : int;
  ffs : int;
  feature : feature;
}

and feature =
  | Core_ifp  (** irreducible plumbing: decode, control registers *)
  | Bounds_registers  (** 32 x 96-bit bounds regs + forwarding + wb port *)
  | Ifp_unit_base  (** promote control, MAC unit *)
  | Layout_walker  (** array-of-struct narrowing state machine + divider *)
  | Scheme of string  (** one object-metadata scheme block *)
  | Lsu_widening  (** ldbnd/stbnd datapath, implicit checks *)
  | Temporal_epoch
      (** free-epoch generation machinery: promote-path epoch compare,
          tag gen-nibble datapath, free-path generation bump *)

type config = {
  bounds_registers : bool;
  layout_walker : bool;
  schemes : string list;  (** subset of ["local"; "subheap"; "global"] *)
  temporal : bool;  (** price the free-epoch extension *)
}

val full : config
(** The paper's configuration — temporal off, so all Fig. 13 numbers are
    exactly the calibrated ones. *)

val full_temporal : config
(** {!full} plus the temporal extension. *)

val components : component list

val temporal_components : component list
(** The temporal-extension blocks, kept out of {!components} so the
    Fig. 13 component table is unchanged; included in the totals only
    when [config.temporal] is set. *)

val temporal_metadata_bytes : (string * int) list
(** Extra metadata bytes per object each scheme's temporal encoding
    costs (local-offset and global-table generations pack into spare
    bits; the subheap block record doubles to hold the per-slot freed
    bitmap). *)

val vanilla_luts : int
val vanilla_ffs : int

val added_luts : config -> int
val added_ffs : config -> int

val total_luts : config -> int
val total_ffs : config -> int

val lut_increase_pct : config -> float
(** Percent increase over vanilla (paper: ~60% for the full config). *)

val by_stage : config -> (stage * int) list
(** Added LUTs per pipeline stage (Fig. 13). *)

val stage_to_string : stage -> string
