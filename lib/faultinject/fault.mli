(** Deterministic, seed-driven fault injection against the simulated
    machine — the attacker model of the paper's security argument
    (§3.3–§4.3): IFP claims to {e detect} corrupted pointer tags and
    tampered object metadata, so this module corrupts exactly those,
    mid-execution, and lets the campaign measure what the hardware
    actually catches.

    An injection {!plan} is pure data (fault class + trigger + seed);
    the {!injector} is the per-run mutable state the VM drives through
    the {!on_promote} / {!on_access} hooks. Everything downstream of the
    seed is deterministic: same plan + same program ⇒ same corruption at
    the same dynamic instant, which is what makes campaign results
    cacheable and reproducible. *)

(** What gets corrupted. *)
type fault_class =
  | Tag_flip
      (** flip a bit of the promoted pointer's scheme-metadata field
          (the field that locates the object metadata) *)
  | Bounds_corrupt
      (** overwrite the bounds register consulted by the current
          load/store so the access falls outside it *)
  | Meta_tamper
      (** flip a bit in a MAC-covered payload field of a live metadata
          record (size / layout pointer / slot geometry) *)
  | Mac_flip  (** flip a bit of a live metadata record's 48-bit MAC *)
  | Heap_smash
      (** xor random mapped heap bytes — the blunt attacker who corrupts
          data (and whatever metadata is in the way) without aiming *)
  | Stale_meta
      (** wipe a live metadata record: deregister-then-use *)
  | Uaf_use
      (** retire the record's free epoch ({!Ifp_metadata.Meta.mark_freed})
          while the program still holds pointers into it — use-after-free.
          Outside temporal mode this degenerates to the spatial free
          model (record wiped), measuring what spatial-only IFP misses. *)
  | Double_free
      (** same injection, but against the temporal victim that frees the
          object itself later — the program's own free becomes the second
          free and the allocator traps [Double_free] *)

val all_classes : fault_class list
(** Temporal classes last: campaign seed mixing is index-based, so the
    pre-temporal prefix (and every cached plan derived from it) is
    unchanged. *)

val class_name : fault_class -> string
val class_of_name : string -> fault_class option

val expected_trap : fault_class -> Ifp_isa.Trap.t -> bool
(** Whether a trap is one the fault class is architecturally supposed
    to raise: the [expect] of its {!Verdict.classify}. *)

(** When the corruption happens, counted in dynamic events. *)
type trigger =
  | Nth_promote of int
      (** arm at the [n]-th promote; fires at the first armed promote
          with a usable target (tagged pointer / live metadata entry) *)
  | Nth_access of int  (** likewise, counted in loads+stores *)
  | Addr_window of { lo : int64; hi : int64; nth : int }
      (** fires at the [nth] access whose address lies in [\[lo, hi)] *)

type plan = { cls : fault_class; trigger : trigger; seed : int64 }

val default_plan : fault_class -> seed:int64 -> plan
(** Class-appropriate trigger drawn from a PRNG seeded by [seed]:
    access-site classes get an [Nth_access] trigger, promote-site
    classes an [Nth_promote]. *)

val fingerprint : plan -> string
(** Stable one-line rendering, part of the campaign job digest — two
    runs differing only in their plan never share a cache entry. *)

type t
(** The per-run injector (one per [Vm.run], never shared). *)

val create : plan -> mem:Ifp_machine.Memory.t -> heap_base:int64 -> t

val attach_meta : t -> Ifp_metadata.Meta.t -> unit
(** Give the injector access to the metadata context (IFP variants
    only); without it the metadata-targeting classes never fire. *)

val fired : t -> bool

val injections : t -> string list
(** Human-readable record of each corruption performed, in order
    ([site:detail]); empty iff the fault never fired. *)

val on_promote : t -> int64 -> int64
(** VM hook at [promote] entry, every variant. Counts the event and, if
    due, corrupts: [Tag_flip] returns the flipped pointer; the metadata
    classes tamper with the promoted pointer's own record (falling back
    to a seeded pick among live records) and return the pointer
    unchanged. *)

val on_access :
  t -> addr:int64 -> size:int -> bounds:Ifp_isa.Bounds.t -> Ifp_isa.Bounds.t
(** VM hook before each load/store bounds check. Counts the event and,
    if due, corrupts: [Bounds_corrupt] returns bounds excluding
    [\[addr, addr+size)] (cannot fire on [No_bounds] accesses — there is
    no bounds register to corrupt); [Heap_smash] xors mapped heap bytes
    and returns the bounds unchanged. *)
