module Trap = Ifp_isa.Trap

type observed = {
  outcome : [ `Finished of int64 | `Trapped of Trap.t | `Aborted of string ];
  output : string list;
}

type t = Detected of { trap : Trap.t; expected : bool } | Silent | Benign | Error of string

let classify ~expect ?golden run =
  match (run.outcome, golden) with
  | `Trapped trap, _ -> Detected { trap; expected = expect trap }
  | `Aborted m, _ -> Error m
  | `Finished ret, Some { outcome = `Finished gret; output }
    when Int64.equal gret ret && run.output = output ->
    Benign
  | `Finished _, _ -> Silent

let to_string = function
  | Detected { expected = true; _ } -> "detected"
  | Detected { expected = false; _ } -> "detected-unexpected"
  | Silent -> "silent"
  | Benign -> "benign"
  | Error _ -> "error"

type expect = Detect | Pass

type 'p row = { program : 'p; config : string; expect : expect; verdict : t }

type tally = { total : int; detected : int; missed : int; pass_failures : int }

let tally rows =
  List.fold_left
    (fun t r ->
      match (r.expect, r.verdict) with
      | Detect, Detected _ -> { t with total = t.total + 1; detected = t.detected + 1 }
      | Detect, (Silent | Benign) -> { t with total = t.total + 1; missed = t.missed + 1 }
      | Detect, Error _ -> { t with total = t.total + 1 }
      | Pass, (Detected _ | Error _) -> { t with pass_failures = t.pass_failures + 1 }
      | Pass, (Silent | Benign) -> t)
    { total = 0; detected = 0; missed = 0; pass_failures = 0 }
    rows
