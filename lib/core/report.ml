module Vm = Ifp_vm.Vm

type row = {
  name : string;
  baseline : Vm.result;
  subheap : Vm.result;
  wrapped : Vm.result;
  subheap_np : Vm.result;
  wrapped_np : Vm.result;
}

let variants =
  [
    ("baseline", Vm.baseline);
    ("subheap", Vm.ifp_subheap);
    ("wrapped", Vm.ifp_wrapped);
    ("subheap-np", Vm.no_promote Vm.Alloc_subheap);
    ("wrapped-np", Vm.no_promote Vm.Alloc_wrapped);
  ]

let configs =
  variants
  @ [
      ("mixed", Vm.ifp_mixed);
      ("no-narrowing", Vm.no_narrowing Vm.Alloc_subheap);
      ("infer-types", { Vm.ifp_subheap with infer_alloc_types = true });
    ]

let of_results ~name ~lookup =
  {
    name;
    baseline = lookup "baseline";
    subheap = lookup "subheap";
    wrapped = lookup "wrapped";
    subheap_np = lookup "subheap-np";
    wrapped_np = lookup "wrapped-np";
  }

let evaluate ~name prog =
  let results =
    List.map (fun (vname, config) -> (vname, Vm.run ~config prog)) variants
  in
  of_results ~name ~lookup:(fun vname -> List.assoc vname results)

let evaluate_variants ~name prog variants =
  ignore name;
  List.map (fun (vname, config) -> (vname, Vm.run ~config prog)) variants

let aborted_result msg =
  {
    Vm.outcome = Vm.Aborted (Vm.Host_failure msg);
    counters = Ifp_vm.Counters.create ();
    alloc_stats = Ifp_alloc.Alloc_intf.fresh_stats ();
    alloc_extra = [];
    cache_accesses = 0;
    cache_misses = 0;
    mem_footprint = 0;
    output = [];
    instrument_report = None;
    trace = [];
    fault_injections = [];
  }

let runtime_overhead ~(baseline : Vm.result) (r : Vm.result) =
  Ifp_util.Stats.ratio
    (float_of_int r.counters.cycles)
    (float_of_int baseline.counters.cycles)

let instr_overhead ~(baseline : Vm.result) (r : Vm.result) =
  Ifp_util.Stats.ratio
    (float_of_int (Ifp_vm.Counters.total_instrs r.counters))
    (float_of_int (Ifp_vm.Counters.total_instrs baseline.counters))

let memory_overhead ~(baseline : Vm.result) (r : Vm.result) =
  Ifp_util.Stats.ratio
    (float_of_int r.mem_footprint)
    (float_of_int baseline.mem_footprint)

let outcome_reason (r : Vm.result) =
  match r.outcome with
  | Vm.Finished _ -> None
  | Vm.Trapped t -> Some ("trap: " ^ Ifp_isa.Trap.to_string t)
  | Vm.Aborted reason -> Some ("abort: " ^ Vm.abort_reason_string reason)

(* Structured short label for a did-not-finish outcome — derived from the
   outcome constructors, never by parsing reason strings. *)
let outcome_kind (r : Vm.result) =
  match r.outcome with
  | Vm.Finished _ -> None
  | Vm.Trapped _ -> Some "trap"
  | Vm.Aborted Vm.Budget_exhausted -> Some "budget"
  | Vm.Aborted _ -> Some "abort"

let check_outcomes row =
  List.filter_map
    (fun (vname, r) ->
      match outcome_reason r with None -> None | Some why -> Some (vname, why))
    [
      ("baseline", row.baseline);
      ("subheap", row.subheap);
      ("wrapped", row.wrapped);
      ("subheap-np", row.subheap_np);
      ("wrapped-np", row.wrapped_np);
    ]

let status_string row =
  let bad =
    List.filter_map
      (fun (vname, r) ->
        match outcome_kind r with
        | None -> None
        | Some kind -> Some (vname ^ "(" ^ kind ^ ")"))
      [
        ("baseline", row.baseline);
        ("subheap", row.subheap);
        ("wrapped", row.wrapped);
        ("subheap-np", row.subheap_np);
        ("wrapped-np", row.wrapped_np);
      ]
  in
  match bad with [] -> "ok" | bad -> String.concat "," bad
