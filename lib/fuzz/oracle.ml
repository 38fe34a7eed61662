module Vm = Ifp_vm.Vm
module Engines = Ifp_vm.Engines
module Counters = Ifp_vm.Counters
module Trap = Ifp_isa.Trap
module Fault = Ifp_faultinject.Fault
module Verdict = Ifp_faultinject.Verdict
module Prng = Ifp_util.Prng

type failure = { oracle : string; site : string; detail : string }

(* generous fixed budget: IFP instrumentation overhead must never turn a
   terminating program into a budget abort, but a fault-corrupted run
   sent spinning must still die deterministically *)
let budget = 2_000_000

let configs =
  [
    ("baseline", { Vm.baseline with max_cycles = budget });
    ("ifp-subheap", { Vm.ifp_subheap with trace_limit = 32; max_cycles = budget });
    ("ifp-wrapped", { Vm.ifp_wrapped with max_cycles = budget });
  ]

(* Heap_smash is out of the architectural detection contract; the
   temporal classes free live records, which a spatial-only
   configuration is not contracted to catch — they get their own armed
   battery in {!check_temporal}, keeping this list (and every cached
   battery verdict) exactly what it was before temporal mode existed. *)
let defended =
  List.filter
    (fun c ->
      not (List.mem c [ Fault.Heap_smash; Fault.Uaf_use; Fault.Double_free ]))
    Fault.all_classes

let temporal_defended = [ Fault.Uaf_use; Fault.Double_free ]

let temporal_configs =
  List.filter_map
    (fun (name, cfg) ->
      if name = "baseline" then None
      else Some (name ^ "-t", { cfg with Vm.temporal = true }))
    configs

(* ---- observable signature (the full result, line-oriented) ----------- *)

let result_sig (r : Vm.result) =
  let c = r.Vm.counters in
  let b = Buffer.create 256 in
  let f fmt = Printf.ksprintf (fun s -> Buffer.add_string b s) fmt in
  f "outcome=%s\n" (Vm.outcome_string r.Vm.outcome);
  f "base_instrs=%d cycles=%d loads=%d stores=%d checks=%d\n"
    c.Counters.base_instrs c.Counters.cycles c.Counters.loads c.Counters.stores
    c.Counters.implicit_checks;
  f "ifp=[%s]\n"
    (String.concat "," (List.map string_of_int (Array.to_list c.Counters.ifp)));
  f "promotes=%d/%d/%d/%d/%d subobj=%d narrows=%d/%d\n"
    c.Counters.promotes_valid c.Counters.promotes_null
    c.Counters.promotes_legacy c.Counters.promotes_poisoned
    c.Counters.promotes_invalid_meta c.Counters.promotes_subobj
    c.Counters.narrows_ok c.Counters.narrows_failed;
  f "objs=%d/%d %d/%d %d/%d\n" c.Counters.global_objs
    c.Counters.global_objs_layout c.Counters.local_objs
    c.Counters.local_objs_layout c.Counters.heap_objs
    c.Counters.heap_objs_layout;
  f "cache=%d/%d footprint=%d\n" r.Vm.cache_accesses r.Vm.cache_misses
    r.Vm.mem_footprint;
  f "output=%s\n" (String.concat "|" r.Vm.output);
  f "trace=%s\n" (String.concat ";" (List.map Vm.trace_event_string r.Vm.trace));
  f "fault_injections=%s\n" (String.concat ";" r.Vm.fault_injections);
  Buffer.contents b

(* every line position where two texts differ; [None] is past the end *)
let line_diff a b =
  let rec go acc = function
    | x :: la, y :: lb ->
      go (if String.equal x y then acc else (Some x, Some y) :: acc) (la, lb)
    | x :: la, [] -> go ((Some x, None) :: acc) (la, [])
    | [], y :: lb -> go ((None, Some y) :: acc) ([], lb)
    | [], [] -> List.rev acc
  in
  go [] (String.split_on_char '\n' a, String.split_on_char '\n' b)

(* the first line where two signatures disagree, unified-diff style *)
let sig_diff a b =
  let side = Option.value ~default:"<eof>" in
  match line_diff a b with
  | [] -> "<equal>"
  | (x, y) :: _ -> Printf.sprintf "-%s +%s" (side x) (side y)

let failure_key f = f.oracle ^ "/" ^ f.site

let to_line f =
  Printf.sprintf "FAIL %s %s %s" f.oracle f.site (String.escaped f.detail)

let of_line s =
  match String.split_on_char ' ' s with
  | "FAIL" :: oracle :: site :: rest ->
    let detail =
      try Scanf.unescaped (String.concat " " rest) with _ -> String.concat " " rest
    in
    Some { oracle; site; detail }
  | _ -> None

(* ---- the battery ----------------------------------------------------- *)

(* oracle A: every engine against the reference, the head of Engines.all,
   all running one prepared image *)
let agree_image cname cfg image =
  let run engine = Vm.run_image ~config:{ cfg with Vm.engine } image in
  match Engines.all with
  | [] -> invalid_arg "Oracle.agree: no engines"
  | reference :: rest ->
    let r = run reference in
    let s = result_sig r in
    let fails =
      List.filter_map
        (fun e ->
          let s' = result_sig (run e) in
          if String.equal s s' then None
          else
            Some
              {
                oracle = "engines";
                site = cname ^ "/" ^ Engines.to_string e;
                detail = sig_diff s s';
              })
        rest
    in
    (fails, r)

let agree cname cfg prog = agree_image cname cfg (Vm.prepare cfg prog)

(* oracle B: instrumented-vs-baseline behavioral equivalence *)
let equivalence ~baseline results =
  match baseline.Vm.outcome with
  | Vm.Finished n ->
    List.filter_map
      (fun (cname, r) ->
        let fail detail = Some { oracle = "equivalence"; site = cname; detail } in
        match r.Vm.outcome with
        | Vm.Finished m when Int64.equal m n && r.Vm.output = baseline.Vm.output
          ->
          None
        | Vm.Finished m when Int64.equal m n ->
          fail
            (Printf.sprintf "output differs: baseline=[%s] %s=[%s]"
               (String.concat "|" baseline.Vm.output)
               cname
               (String.concat "|" r.Vm.output))
        | o ->
          fail
            (Printf.sprintf "baseline finished:%Ld but %s %s" n cname
               (Vm.outcome_string o)))
      results
  | o -> [ { oracle = "wellformed"; site = "baseline"; detail = Vm.outcome_string o } ]

(* one armed plan per class against [cfg] (plan seeds derived from
   [fault_seed]), all running [image]; the (class, plan, run) of every
   plan whose fault landed and whose run is [Silent] against [golden] *)
let silent_plans ~fault_seed classes cfg image golden =
  let golden = Vm.observe golden in
  List.concat
    (List.mapi
       (fun k cls ->
         let plan =
           Fault.default_plan cls ~seed:(Prng.mix2 fault_seed (Int64.of_int k))
         in
         let r = Vm.run_image ~config:{ cfg with Vm.fault_plan = Some plan } image in
         match
           Verdict.classify ~expect:(Fault.expected_trap cls) ~golden (Vm.observe r)
         with
         | Verdict.Silent when r.Vm.fault_injections <> [] -> [ (cls, plan, r) ]
         | _ -> [])
       classes)

(* A battery prepares [prog] once per front-end key: one baseline image,
   and one IFP image that both IFP configs, their temporal variants and
   every armed plan share. *)
let check ?(fault_seed = 1L) prog =
  let image = Vm.preparer prog in
  let runs =
    List.map
      (fun (cname, cfg) -> (cname, cfg, agree_image cname cfg (image cfg)))
      configs
  in
  let find name =
    let _, cfg, (_, r) = List.find (fun (n, _, _) -> String.equal n name) runs in
    (cfg, r)
  in
  let _, base_r = find "baseline" in
  let subheap_cfg, golden = find "ifp-subheap" in
  let engine_fails = List.concat_map (fun (_, _, (fails, _)) -> fails) runs in
  let equiv_fails =
    equivalence ~baseline:base_r (List.map (fun (n, _, (_, r)) -> (n, r)) runs)
  in
  (* oracle C: no armed plan of a defended class is [Silent] *)
  let fault_fails =
    match golden.Vm.outcome with
    | Vm.Finished _ ->
      List.map
        (fun (cls, plan, r) ->
          {
            oracle = "faults";
            site = Fault.class_name cls;
            detail =
              Printf.sprintf "plan %s fired [%s] yet finished %s vs golden %s"
                (Fault.fingerprint plan)
                (String.concat ";" r.Vm.fault_injections)
                (Vm.outcome_string r.Vm.outcome)
                (Vm.outcome_string golden.Vm.outcome);
          })
        (silent_plans ~fault_seed defended subheap_cfg (image subheap_cfg) golden)
    | _ -> []
  in
  (engine_fails @ equiv_fails @ fault_fails, golden)

(* ---- the temporal battery -------------------------------------------- *)

let check_temporal ?(fault_seed = 1L) ?(expect_fault = false) prog =
  let image = Vm.preparer prog in
  List.concat_map
    (fun (cname, cfg) ->
      let engine_fails, r0 = agree_image cname cfg (image cfg) in
      let fail oracle site detail = [ { oracle; site; detail } ] in
      engine_fails
      @
      match (expect_fault, r0.Vm.outcome) with
      | true, Vm.Trapped (Trap.Use_after_free _ | Trap.Write_to_freed _ | Trap.Double_free _)
        ->
        (* a generated temporal-fault program must die with a temporal
           trap, never run to completion or trap for a spatial reason *)
        []
      | true, o ->
        fail "temporal" cname
          ("temporal-fault program did not trap temporally: " ^ Vm.outcome_string o)
      | false, Vm.Finished _ ->
        (* a safe program must finish under temporal mode; it is then the
           golden for the armed plans: temporal-mode IFP must never
           let a defended temporal fault run [Silent] *)
        List.concat_map
          (fun (cls, plan, r) ->
            fail "temporal-faults"
              (cname ^ "/" ^ Fault.class_name cls)
              (Printf.sprintf "plan %s fired [%s] yet finished %s"
                 (Fault.fingerprint plan)
                 (String.concat ";" r.Vm.fault_injections)
                 (Vm.outcome_string r.Vm.outcome)))
          (silent_plans ~fault_seed temporal_defended cfg (image cfg) r0)
      | false, o ->
        fail "temporal" cname
          ("safe program did not finish under temporal mode: " ^ Vm.outcome_string o))
    temporal_configs
