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

(* (variant, status label, full reason) for every variant that did not
   finish, or finished with a return value other than baseline's:
   instrumentation must never change what a program computes. Labels
   come from the outcome constructors, never from parsing reason
   strings. *)
let problems row =
  let expected =
    match row.baseline.outcome with Vm.Finished v -> Some v | _ -> None
  in
  List.filter_map
    (fun (vname, (r : Vm.result)) ->
      let flag kind why = Some (vname, kind, why) in
      match r.outcome with
      | Vm.Finished v -> (
        match expected with
        | Some b when not (Int64.equal v b) ->
          flag "checksum" (Printf.sprintf "checksum: %Ld, baseline %Ld" v b)
        | _ -> None)
      | Vm.Trapped t -> flag "trap" ("trap: " ^ Ifp_isa.Trap.to_string t)
      | Vm.Aborted reason ->
        flag
          (match reason with Vm.Budget_exhausted -> "budget" | _ -> "abort")
          ("abort: " ^ Vm.abort_reason_string reason))
    [
      ("baseline", row.baseline);
      ("subheap", row.subheap);
      ("wrapped", row.wrapped);
      ("subheap-np", row.subheap_np);
      ("wrapped-np", row.wrapped_np);
    ]

let check_outcomes row = List.map (fun (v, _, why) -> (v, why)) (problems row)

let status_string row =
  match problems row with
  | [] -> "ok"
  | bad -> String.concat "," (List.map (fun (v, k, _) -> v ^ "(" ^ k ^ ")") bad)
