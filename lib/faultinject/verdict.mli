(** The one answer every detection harness gives: did the defense catch
    the access it should have, and did it stay quiet on correct code?

    The split is the three-way one of the paper-style security
    evaluations of RV-CURE and CryptSan: a run either {e trapped} (the
    defense detected it), finished with output differing from a golden
    run ({e silent}), or finished identically ({e benign} — a fault
    whose flipped bits were never consumed). Juliet, the guarantee
    tests, the fault tables and the fuzz oracle all classify runs here
    and count {!row}s with the one {!tally}.

    Kept free of [Vm] types so the library can sit below the VM:
    callers distil a run into an {!observed} ([Vm.observe]). *)

type observed = {
  outcome :
    [ `Finished of int64 | `Trapped of Ifp_isa.Trap.t | `Aborted of string ];
  output : string list;
}

type t =
  | Detected of { trap : Ifp_isa.Trap.t; expected : bool }
      (** trapped; [expected] when the trap is one the harness expects *)
  | Silent
      (** finished, and differs from the golden run (or there is none) *)
  | Benign  (** finished exactly as the golden run *)
  | Error of string
      (** died in the simulator (e.g. a cycle budget) — neither
          detection nor silence *)

val classify : expect:(Ifp_isa.Trap.t -> bool) -> ?golden:observed -> observed -> t
(** [classify ~expect ?golden run]: [expect] says which traps the
    harness expects. Without [golden] a finished run is [Silent]; with
    it (the same program and config, unarmed) it is [Benign] when its
    value and output equal the golden's, else [Silent]. *)

val to_string : t -> string
(** [detected] / [detected-unexpected] / [silent] / [benign] / [error]. *)

(** What the harness expects of a program: the defense catches it, or
    it runs clean. *)
type expect = Detect | Pass

type 'p row = { program : 'p; config : string; expect : expect; verdict : t }

type tally = {
  total : int;  (** [Detect] rows *)
  detected : int;  (** [Detect] rows that trapped *)
  missed : int;  (** [Detect] rows that finished *)
  pass_failures : int;  (** [Pass] rows that trapped or died *)
}

val tally : 'p row list -> tally
