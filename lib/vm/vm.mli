(** The execution engines' one entry point: runs MiniC programs on the
    simulated machine under one of three variants, producing the dynamic event
    counts, cycle estimate and memory footprint the evaluation harness
    consumes.

    - [Baseline]: the raw (uninstrumented) program with the glibc-like
      allocator — the paper's baseline runs.
    - [Ifp]: the program is passed through {!Ifp_compiler.Instrument},
      pointers are tagged, promotes/checks execute architecturally, and
      the allocator is either [Alloc_wrapped] or [Alloc_subheap].
    - [Ifp_no_promote]: identical, except [promote] behaves as a nop
      (no metadata access, bounds cleared) — the paper's no-promote
      configuration used to isolate the promote cost (§5). *)

type variant = Rt.variant = Baseline | Ifp | Ifp_no_promote

type alloc_kind = Rt.alloc_kind =
  | Alloc_baseline
  | Alloc_wrapped
  | Alloc_subheap
  | Alloc_mixed
      (** subheap for small typed allocations, wrapped for the rest —
          the runtime-selection extension of §4.2.1 (future work) *)

(** Which execution engine runs the program. All three are
    observationally identical — same outcome, counters, traces, output —
    and differ only in host-side speed:
    - [Eng_vm]: the slot-resolved interpreter ([Vm_slot])
    - [Eng_ref]: the frozen tree-walking oracle ([Vm_ref])
    - [Eng_closure]: the closure-compiled engine ([Vm_closure]), the
      production engine and the default

    {!run_image} dispatches on this field; the engine modules are private to
    the library. The field is deliberately excluded from campaign job
    fingerprints: a cached result is valid whichever engine produced
    it. *)
type engine = Rt.engine = Eng_vm | Eng_ref | Eng_closure

type config = Rt.config = {
  variant : variant;
  alloc : alloc_kind;
  seed : int64;  (** MAC-key derivation seed *)
  max_cycles : int;  (** runaway-program guard *)
  narrowing : bool;
      (** [false] models hardware without the layout-table walker (the
          §5.3 area ablation): promote falls back to object bounds *)
  infer_alloc_types : bool;
      (** enable the pass's allocation-wrapper type inference (the
          §5.2.1 future-work improvement) *)
  trace_limit : int;
      (** collect the first N IFP events (promotes with outcomes, object
          registrations, the trap) into {!result.trace}; 0 = off *)
  fault_plan : Ifp_faultinject.Fault.plan option;
      (** arm a fault injector for this run ({!Ifp_faultinject.Fault});
          [None] (the default) leaves execution byte-identical to a build
          without the subsystem. Armed runs also harden promote: an
          invalid-metadata promote traps ([Mac_mismatch] /
          [Invalid_metadata]) instead of deferring detection to the
          poisoned dereference. *)
  engine : engine;
      (** which engine {!run_image} dispatches to; [Eng_closure] default *)
  temporal : bool;
      (** free-epoch generations (default [false]): metadata records
          carry a generation and freed flag mirrored into the pointer
          tag, allocator frees quarantine instead of recycling, and
          stale accesses trap ([Use_after_free] / [Write_to_freed] /
          [Double_free]). With it off, every encoding, cost and output
          is bit-identical to the spatial-only design. *)
}

type trace_event = Rt.trace_event =
  | T_promote of { ptr : int64; outcome : string; bounds : string }
  | T_register of { what : string; ptr : int64; size : int }
  | T_deregister of { what : string; ptr : int64 }
  | T_trap of string

val default_config : config
val baseline : config
val ifp_wrapped : config
val ifp_subheap : config
val no_promote : alloc_kind -> config

val no_narrowing : alloc_kind -> config
(** IFP with subobject narrowing disabled (object granularity only). *)

val ifp_mixed : config

(** Why a run was aborted (simulator-level, not a protection trap) —
    structured so the campaign status column and the fault classifier
    never parse message strings. *)
type abort_reason = Rt.abort_reason =
  | Budget_exhausted  (** [max_cycles] exceeded (runaway program) *)
  | Stack_overflow
  | Out_of_memory of string
      (** allocator exhausted, or guest output past {!max_output_lines} *)
  | Program_error of string  (** ill-formed IR / guest misuse at runtime *)
  | Host_failure of string
      (** harness-level failure attached by campaign plumbing (never
          produced by {!run} itself) *)

val abort_reason_string : abort_reason -> string

val max_output_lines : int
(** Guest [__print_*] lines one run may produce; the next one aborts the
    run with [Out_of_memory], so output cannot exhaust host memory. *)

type outcome = Rt.outcome =
  | Finished of int64  (** [main]'s return value *)
  | Trapped of Ifp_isa.Trap.t
  | Aborted of abort_reason

type result = Rt.result = {
  outcome : outcome;
  counters : Counters.t;
  alloc_stats : Ifp_alloc.Alloc_intf.stats;
  alloc_extra : (string * int) list;
  cache_accesses : int;
  cache_misses : int;
  mem_footprint : int;
      (** heap footprint + registered-globals metadata + layout tables —
          the maximum-resident-size proxy (Fig. 12) *)
  output : string list;  (** host [__print_*] lines, in order *)
  instrument_report : Ifp_compiler.Instrument.report option;
  trace : trace_event list;
      (** first [trace_limit] IFP events (always includes a trailing
          {!T_trap} when the run trapped) *)
  fault_injections : string list;
      (** corruptions performed by the armed fault injector, in order;
          [[]] when [fault_plan = None] or the trigger never fired *)
}

type image
(** A program prepared for running: typechecked, instrumented when the
    config's variant is [Ifp] or [Ifp_no_promote] (with the config's
    [infer_alloc_types]), and lowered to the engines' slot form — what
    the paper's compile-time pass produces once per binary. Its front-end
    key is that pair: instrumented or not, and, if instrumented,
    [infer_alloc_types]; no other config field shapes an image. An image
    is immutable, so runs on any engine, from any domain, may share it. *)

val prepare : config -> Ifp_compiler.Ir.program -> image
(** The front end, once: typecheck, instrument (for IFP variants),
    resolve. Raises {!Ifp_compiler.Typecheck.Type_error} on ill-typed
    programs. Never mutates the program.

    The type check comes first, before instrumentation, and is the one
    check between a program and an engine: {!Ifp_compiler.Resolve}'s
    input contract is a program that passed it, and no engine has a
    path for a construct it rejects (an unknown name, an ill-formed gep
    step, a call of the wrong arity, an aggregate [Let]). A read of a
    variable or stack local on a path that never bound it still aborts
    the run, because the check is flow-insensitive. *)

val run_image : config:config -> image -> result
(** Executes [main] of a prepared image on the engine [config.engine]
    names — the one engine dispatcher. Raises [Invalid_argument] when
    [config]'s front-end key differs from the one the image was prepared
    for (a baseline image under an IFP config, or the reverse, or a
    different [infer_alloc_types]); all runtime failures are reported in
    [outcome].

    Concurrency contract: a run builds all of its state —
    {!Ifp_machine.Memory}, {!Ifp_metadata.Meta}, allocator, counters —
    afresh per call, only reads the image, and touches no library-level
    mutable globals, so concurrent runs from multiple domains are safe
    and deterministic. lib/campaign's parallel engine relies on this. *)

val run : ?config:config -> Ifp_compiler.Ir.program -> result
(** [run_image ~config (prepare config prog)]: typechecks, instruments,
    executes — the way to run a program once. A caller that runs one
    program under several configs prepares one image per front-end key
    instead ({!preparer}). *)

val preparer : Ifp_compiler.Ir.program -> config -> image
(** [preparer prog] is the front end of one battery of runs of [prog]:
    [preparer prog config] is [prepare config prog], prepared on first
    use of its front-end key and shared by every later config with the
    same key. The returned function holds its images until it is
    dropped; use it from one domain. *)

val outcome_string : outcome -> string
(** [finished:V], [trapped:TRAP] or [aborted:REASON] — the one rendering
    of an outcome (signatures, event logs, tool output). *)

val trace_event_string : trace_event -> string
(** [promote:PTR:OUTCOME:BOUNDS], [register:WHAT:PTR:SIZE],
    [deregister:WHAT:PTR] or [trap:MSG], pointers in hex. *)

val observe : result -> Ifp_faultinject.Verdict.observed
(** The run as {!Ifp_faultinject.Verdict.classify} sees it: outcome and
    output. *)
