(** The [promote] instruction: pointer bounds retrieval (paper Fig. 5),
    i.e. object-metadata lookup dispatched on the scheme selector
    followed by subobject bounds narrowing via the in-memory layout table
    (Fig. 2, Fig. 9c).

    [run] is purely architectural — it performs the metadata memory reads
    and returns both the result and a cost descriptor ({!fetches},
    division and walk counts) that the VM folds into its cycle and cache
    models. *)

type narrow_status =
  | No_subobject  (** subobject index 0, or no layout table published *)
  | Narrowed  (** bounds refined to the subobject *)
  | Narrow_failed of string
      (** e.g. index out of table range, or address outside the object —
          bounds coarsened to the object granularity (paper §5.2.1) *)

type outcome =
  | Bypass_poisoned  (** input was invalid; no metadata access *)
  | Bypass_null
  | Bypass_legacy
  | Metadata_invalid of string  (** output pointer poisoned *)
  | Temporal_stale of { freed : bool; gen_ptr : int; gen_meta : int }
      (** temporal mode: metadata resolved but the allocation is in a
          later free epoch (freed flag set, or generation mismatch);
          output pointer poisoned [Freed], bounds cleared *)
  | Retrieved of narrow_status

type result = {
  ptr : int64;  (** output pointer (poison bits updated) *)
  bounds : Ifp_isa.Bounds.t;
  outcome : outcome;
  fetches : Meta.fetch list;  (** metadata memory reads, in order *)
  divisions : int;  (** multi-cycle divisions (slot index, array snap) *)
  walk_elems : int;  (** layout-table elements fetched by the walker *)
  mac_checks : int;
}

val run : ?narrow:bool -> Meta.t -> int64 -> result
(** [narrow] defaults to [true]; [~narrow:false] models hardware without
    the layout-table walker (the area ablation of §5.3): object-metadata
    lookup still happens but subobject narrowing is skipped, degrading
    protection to object granularity. *)

val accessed_metadata : result -> bool
(** True when the promote did not bypass the object-metadata lookup — the
    "valid promote" count of the paper's Table 4. *)
