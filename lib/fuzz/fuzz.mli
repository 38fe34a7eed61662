(** Campaign plumbing for the differential fuzzer: turning generated
    programs into {!Ifp_campaign.Job}s whose runner executes the whole
    oracle battery, minimizing failures into content-addressed corpus
    entries, and replaying them.

    One fuzz case = one job. The job's program is generated
    deterministically from [campaign_seed x round x index]; its config
    is the nominal ifp-subheap configuration with [config.seed] set to
    the case seed (which also seeds the fault plans), and a fuzz [salt]
    so battery results never share cache entries with plain runs of the
    same program. The runner returns a synthesized result whose outcome
    is [Finished 0] (all oracles agree) or [Finished 1] (divergence),
    with one {!Oracle.to_line} per failure in [output] — so the engine's
    cache machinery applies to fuzz batteries unchanged,
    and a killed campaign re-run against the same cache reaches the same
    report from cache hits alone. *)

val salt : string
(** Digest salt for battery jobs (versioned: bump when the battery
    semantics change, invalidating cached verdicts). *)

val job :
  knobs:Gen.knobs -> campaign_seed:int64 -> round:int -> idx:int ->
  Ifp_campaign.Job.t
(** @raise Gen.Gen_bug if the generator emits an invalid program. *)

val runner : Ifp_campaign.Job.t -> Ifp_vm.Vm.result
(** The battery: {!Oracle.check} with [fault_seed = config.seed]. *)

val failures_of : Ifp_vm.Vm.result -> Oracle.failure list
(** Decode a battery result's output lines (works on cached results
    too). *)

val minimize :
  fault_seed:int64 -> key:string -> Ifp_compiler.Ir.program -> Ifp_compiler.Ir.program
(** {!Shrink.minimize} to a fixpoint, keeping a candidate while its
    printed text still passes {!check_source} under the same
    [fault_seed] with a failure of key [key]. There is no budget: every
    edit strictly shrinks the program, so the search ends, and no
    single edit of the result still reproduces. The result is re-parsed
    from its own printed text, so it is a parser-image program: printing
    it again is a fixpoint. *)

val check_source :
  ?fault_seed:int64 -> string -> (Oracle.failure list, string) result
(** {!Ifp_compiler.Frontend.check} + battery on MiniC source text;
    [Error] is the front end's located message. *)

(** Content-addressed counterexample corpus: [<digest>.minic] is the
    minimized program text ({!Ifp_compiler.Ir_pp} form), [<digest>.expect]
    a small sidecar recording the originating seed and failure keys. *)

val text_digest : string -> string
(** First 12 hex chars of the MD5 of the text. *)

val corpus_write :
  dir:string -> src:string -> seed:int64 -> keys:string list -> string
(** Writes (creating [dir] if needed); returns the digest. Idempotent
    for identical text. *)

val corpus_entries : dir:string -> (string * string) list
(** [(digest, source text)] for every [*.minic] in [dir], sorted by
    digest; empty if [dir] does not exist. *)
