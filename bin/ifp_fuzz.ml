(* Campaign-scale differential fuzzing with counterexample minimization.

   Rounds of seeded, size-bounded generated MiniC programs are pushed
   through the campaign engine; each case's runner executes the full
   oracle battery (every engine x three configs agreement,
   baseline-vs-IFP behavioral equivalence, fault-classifier sanity).
   Divergent cases are greedily minimized into parser-image repros and
   written to the content-addressed corpus; the campaign stops after
   --dry consecutive rounds produce no new distinct counterexample, or
   at the --rounds cap.

   Everything inherits the campaign engine's machinery: -j workers,
   result cache (battery verdicts are digest-addressed, salted so they
   never collide with plain runs), per-job watchdog, SIGINT/SIGTERM
   graceful drain (exit 130). A killed campaign re-run with the same
   --cache-dir resumes from the cache and reaches the same final
   report.

   Usage:
     ifp_fuzz [--seed S] [--rounds N] [--cases N] [--dry K] [--quick]
              [-j N] [--cache-dir DIR] [--no-cache]
              [--log FILE] [--no-log] [--timeout SECS] [--corpus DIR]
              [--shrink-budget N] [--out FILE]
     ifp_fuzz --repro FILE-or-DIGEST [--fault-seed S] [--corpus DIR]
     ifp_fuzz [--fault-seed S] [--shrink-budget N] --shrink FILE
     ifp_fuzz --canon FILE
     ifp_fuzz [--quick] --emit-seed S *)

module Job = Ifp_campaign.Job
module Engine = Ifp_campaign.Engine
module Rcache = Ifp_campaign.Cache
module Events = Ifp_campaign.Events
module Cli = Ifp_campaign.Cli
module Vm = Ifp_vm.Vm
module Engines = Ifp_vm.Engines
module Table = Ifp_util.Table
module Gen = Ifp_fuzz.Gen
module Oracle = Ifp_fuzz.Oracle
module Fuzz = Ifp_fuzz.Fuzz

type opts = {
  seed : int64;
  rounds : int;
  cases : int;
  dry : int;
  quick : bool;
  workers : int;
  cache_dir : string option;
  log_path : string option;
  timeout : float option;
  corpus : string;
  shrink_budget : int;
  out : string;
  repro : string option;
  fault_seed : int64;
}

let default_opts =
  {
    seed = 1L;
    rounds = 8;
    cases = 250;
    dry = 2;
    quick = false;
    workers = 1;
    cache_dir = None;
    log_path = Some "fuzz.jsonl";
    timeout = Some 120.0;
    corpus = "test/golden/fuzz";
    shrink_budget = 1200;
    out = "BENCH_fuzz.json";
    repro = None;
    fault_seed = 1L;
  }

let usage () =
  prerr_endline
    "usage: ifp_fuzz [--seed S] [--rounds N] [--cases N] [--dry K] [--quick]\n\
    \                [-j N] [--cache-dir DIR] [--no-cache]\n\
    \                [--log FILE] [--no-log] [--timeout SECS] [--corpus DIR]\n\
    \                [--shrink-budget N] [--out FILE]\n\
    \       ifp_fuzz --repro FILE-or-DIGEST [--fault-seed S] [--corpus DIR]\n\
    \       ifp_fuzz [--fault-seed S] [--shrink-budget N] --shrink FILE\n\
    \       ifp_fuzz --canon FILE\n\
    \       ifp_fuzz [--quick] --emit-seed S";
  exit 1

(* a MiniC file through the front end, or its located error and exit 1 *)
let load path =
  match Ifp_compiler.Frontend.load path with
  | Ok loaded -> loaded
  | Error m ->
    prerr_endline m;
    exit 1

let parse_opts argv =
  let o = ref default_opts in
  let i = ref 1 in
  let next what =
    incr i;
    if !i >= Array.length argv then (
      Printf.eprintf "missing argument to %s\n" what;
      usage ())
    else argv.(!i)
  in
  let int_arg what =
    let s = next what in
    match int_of_string_opt s with
    | Some n when n >= 0 -> n
    | _ ->
      Printf.eprintf "bad %s argument %S\n" what s;
      usage ()
  in
  let int64_arg what =
    let s = next what in
    match Int64.of_string_opt s with
    | Some n -> n
    | None ->
      Printf.eprintf "bad %s argument %S\n" what s;
      usage ()
  in
  while !i < Array.length argv do
    (match argv.(!i) with
    | "--seed" -> o := { !o with seed = int64_arg "--seed" }
    | "--rounds" -> o := { !o with rounds = max 1 (int_arg "--rounds") }
    | "--cases" -> o := { !o with cases = max 1 (int_arg "--cases") }
    | "--dry" -> o := { !o with dry = max 1 (int_arg "--dry") }
    | "--quick" -> o := { !o with quick = true }
    | "-j" | "--jobs" -> o := { !o with workers = max 1 (int_arg "-j") }
    | "--cache-dir" -> o := { !o with cache_dir = Some (next "--cache-dir") }
    | "--no-cache" -> o := { !o with cache_dir = None }
    | "--log" -> o := { !o with log_path = Some (next "--log") }
    | "--no-log" -> o := { !o with log_path = None }
    | "--timeout" -> (
      let s = next "--timeout" in
      match float_of_string_opt s with
      | Some t when t > 0.0 -> o := { !o with timeout = Some t }
      | Some _ -> o := { !o with timeout = None }
      | None ->
        Printf.eprintf "bad --timeout argument %S\n" s;
        usage ())
    | "--corpus" -> o := { !o with corpus = next "--corpus" }
    | "--shrink-budget" ->
      o := { !o with shrink_budget = int_arg "--shrink-budget" }
    | "--out" -> o := { !o with out = next "--out" }
    | "--repro" -> o := { !o with repro = Some (next "--repro") }
    | "--canon" ->
      (* parse + typecheck + reprint: the corpus' canonical text form *)
      let _, p = load (next "--canon") in
      print_string (Ifp_compiler.Ir_pp.program_to_string p);
      exit 0
    | "--shrink" ->
      (* minimize a diverging source file and print the result *)
      let path = next "--shrink" in
      let _, prog = load path in
      let fault_seed = !o.fault_seed in
      (match Oracle.check ~fault_seed prog with
      | [], _ ->
        Printf.eprintf "%s: no divergence to minimize\n" path;
        exit 1
      | f :: _, _ ->
        let key = Oracle.failure_key f in
        let small =
          Fuzz.minimize ~budget:!o.shrink_budget ~fault_seed ~key prog
        in
        print_string (Ifp_compiler.Ir_pp.program_to_string small);
        exit 0)
    | "--emit-seed" ->
      (* debug aid: print the generated source for a raw case seed *)
      let s = int64_arg "--emit-seed" in
      let knobs = if !o.quick then Gen.quick else Gen.default in
      print_string (Gen.source ~knobs ~seed:s ());
      exit 0
    | "--fault-seed" -> o := { !o with fault_seed = int64_arg "--fault-seed" }
    | "-h" | "--help" -> usage ()
    | s ->
      Printf.eprintf "unknown option %s\n" s;
      usage ());
    incr i
  done;
  !o

(* ---------------- repro mode ---------------- *)

let print_sig_diff a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go la lb =
    match (la, lb) with
    | x :: la', y :: lb' ->
      if not (String.equal x y) then Printf.printf "  -%s\n  +%s\n" x y;
      go la' lb'
    | x :: la', [] ->
      Printf.printf "  -%s\n" x;
      go la' []
    | [], y :: lb' ->
      Printf.printf "  +%s\n" y;
      go [] lb'
    | [], [] -> ()
  in
  go la lb

let repro opts target =
  let path =
    if Sys.file_exists target && not (Sys.is_directory target) then target
    else
      (* digest (prefix) lookup in the corpus *)
      match
        List.filter
          (fun (d, _) -> String.length target <= String.length d
                         && String.sub d 0 (String.length target) = target)
          (Fuzz.corpus_entries ~dir:opts.corpus)
      with
      | [ (d, _) ] -> Filename.concat opts.corpus (d ^ ".minic")
      | [] ->
        Printf.eprintf "repro: no file and no corpus entry matching %s\n" target;
        exit 2
      | many ->
        Printf.eprintf "repro: ambiguous digest %s (%s)\n" target
          (String.concat ", " (List.map fst many));
        exit 2
  in
  let src, prog = load path in
  Printf.printf "== repro %s (digest %s, fault seed %Ld) ==\n" path
    (Fuzz.text_digest src) opts.fault_seed;
  (* the full engine x config matrix, with signatures kept for diffing *)
  let matrix =
    List.map
      (fun (cname, cfg) ->
        ( cname,
          List.map
            (fun engine ->
              ( Engines.to_string engine,
                Oracle.result_sig
                  (Engines.run ~config:{ cfg with Vm.engine } prog) ))
            Engines.all ))
      Oracle.configs
  in
  let header = [ "config"; "engine"; "outcome"; "cycles"; "output" ] in
  let body =
    List.concat_map
      (fun (cname, per_engine) ->
        List.map
          (fun (ename, s) ->
            let line n =
              match List.nth_opt (String.split_on_char '\n' s) n with
              | Some l -> l
              | None -> ""
            in
            let outcome =
              match String.index_opt (line 0) '=' with
              | Some k ->
                String.sub (line 0) (k + 1) (String.length (line 0) - k - 1)
              | None -> line 0
            in
            let cycles =
              List.nth_opt (String.split_on_char ' ' (line 1)) 1
              |> Option.value ~default:""
            in
            let out_line = line 6 in
            [ cname; ename; outcome; cycles; out_line ])
          per_engine)
      matrix
  in
  Table.print ~header body;
  (* per-config engine diffs: first divergent step, unified style *)
  List.iter
    (fun (cname, per_engine) ->
      match per_engine with
      | (ref_name, ref_sig) :: rest ->
        List.iter
          (fun (ename, s) ->
            if not (String.equal s ref_sig) then begin
              Printf.printf "\n-- %s: %s vs %s diverge --\n" cname ref_name
                ename;
              print_sig_diff ref_sig s
            end)
          rest
      | [] -> ())
    matrix;
  (* and the oracle verdict *)
  let failures, _ = Oracle.check ~fault_seed:opts.fault_seed prog in
  if failures = [] then begin
    Printf.printf "\nall oracles agree: no divergence\n";
    exit 0
  end
  else begin
    Printf.printf "\n%d oracle failure(s):\n" (List.length failures);
    List.iter
      (fun (f : Oracle.failure) ->
        Printf.printf "  [%s] %s\n" (Oracle.failure_key f) f.Oracle.detail)
      failures;
    exit 1
  end

(* ---------------- campaign mode ---------------- *)

let () =
  let opts = parse_opts Sys.argv in
  (match opts.repro with Some t -> repro opts t | None -> ());
  let knobs = if opts.quick then Gen.quick else Gen.default in
  let cache = Option.map (fun dir -> Rcache.create ~dir ()) opts.cache_dir in
  let stop = Cli.install_interrupt () in
  let log = Cli.open_log ~path:opts.log_path in
  let seen = Hashtbl.create 16 in
  (* corpus entries already present count as known, not new *)
  List.iter
    (fun (d, _) -> Hashtbl.replace seen d ())
    (Fuzz.corpus_entries ~dir:opts.corpus);
  let total_cases = ref 0 in
  let total_divergent = ref 0 in
  let new_digests = ref [] in
  let agg = ref [] in
  let interrupted = ref false in
  let dry_rounds = ref 0 in
  let round = ref 0 in
  while
    (not !interrupted) && !round < opts.rounds && !dry_rounds < opts.dry
  do
    let r = !round in
    let jobs =
      List.init opts.cases (fun idx ->
          Fuzz.job ~knobs ~campaign_seed:opts.seed ~round:r ~idx)
    in
    let outcomes, stats =
      Engine.run ~workers:opts.workers ?cache ~log ~stop
        ?job_timeout:opts.timeout ~runner:Fuzz.runner jobs
    in
    agg := stats :: !agg;
    total_cases := !total_cases + stats.Engine.completed;
    if stats.Engine.interrupted then interrupted := true
    else begin
      let divergent =
        Array.to_list outcomes
        |> List.filter_map (fun (o : Engine.outcome) ->
               match (o.Engine.status, o.Engine.result) with
               | Engine.Done, Some res when Fuzz.failures_of res <> [] ->
                 Some (o.Engine.job, Fuzz.failures_of res)
               | _ -> None)
      in
      total_divergent := !total_divergent + List.length divergent;
      let fresh = ref 0 in
      List.iter
        (fun ((j : Job.t), failures) ->
          let keys = List.map Oracle.failure_key failures in
          let fault_seed = j.Job.config.Vm.seed in
          let minimized =
            Fuzz.minimize ~budget:opts.shrink_budget ~fault_seed
              ~key:(List.hd keys) j.Job.prog
          in
          let text = Ifp_compiler.Ir_pp.program_to_string minimized in
          let digest = Fuzz.text_digest text in
          if not (Hashtbl.mem seen digest) then begin
            Hashtbl.replace seen digest ();
            incr fresh;
            new_digests := digest :: !new_digests;
            let d =
              Fuzz.corpus_write ~dir:opts.corpus ~src:text ~seed:fault_seed
                ~keys
            in
            Printf.printf
              "  counterexample %s (%s) minimized to %d lines -> %s/%s.minic\n%!"
              j.Job.name (List.hd keys)
              (List.length (String.split_on_char '\n' text))
              opts.corpus d
          end)
        divergent;
      if !fresh = 0 then incr dry_rounds else dry_rounds := 0;
      Printf.printf
        "round %d: %d cases, %d divergent, %d new counterexample(s), %d \
         cache hits (%.1fs)%s\n%!"
        r (List.length jobs) (List.length divergent) !fresh
        stats.Engine.cache_hits stats.Engine.wall_seconds
        (if !fresh = 0 then Printf.sprintf " [dry %d/%d]" !dry_rounds opts.dry
         else "")
    end;
    incr round
  done;
  if !interrupted then
    Cli.finish
      ~hint:
        (Printf.sprintf "fuzz campaign interrupted in round %d; %s"
           (!round - 1) (Cli.resume_hint cache))
      ~log ~interrupted:true ();
  let stats_sum f = List.fold_left (fun acc s -> acc + f s) 0 !agg in
  let open Events in
  Events.write_json_file ~path:opts.out
    (Obj
       [
         ("bench", String "ifp_fuzz");
         ("seed", String (Int64.to_string opts.seed));
         ("quick", Bool opts.quick);
         ("rounds_run", Int !round);
         ("cases_per_round", Int opts.cases);
         ("programs", Int !total_cases);
         ("divergent", Int !total_divergent);
         ("new_counterexamples", Int (List.length !new_digests));
         ( "corpus",
           List (List.rev_map (fun d -> String d) !new_digests) );
         ("dried_out", Bool (!dry_rounds >= opts.dry));
         ("model_digest", String Job.model_digest);
         ( "campaign",
           Obj
             [
               ("jobs", Int (stats_sum (fun s -> s.Engine.jobs)));
               ("completed", Int (stats_sum (fun s -> s.Engine.completed)));
               ("failed", Int (stats_sum (fun s -> s.Engine.failed)));
               ("timed_out", Int (stats_sum (fun s -> s.Engine.timed_out)));
               ("cache_hits", Int (stats_sum (fun s -> s.Engine.cache_hits)));
               ( "wall_seconds",
                 Float
                   (List.fold_left
                      (fun acc s -> acc +. s.Engine.wall_seconds)
                      0.0 !agg) );
             ] );
       ]);
  Printf.printf
    "fuzz campaign: %d programs, %d divergent, %d new counterexample(s)%s; \
     wrote %s\n"
    !total_cases !total_divergent
    (List.length !new_digests)
    (if !dry_rounds >= opts.dry then
       Printf.sprintf " — dried out after %d quiet round(s)" !dry_rounds
     else "")
    opts.out;
  (* the CI gate: a fuzz run must end with zero unexplained divergences *)
  if !total_divergent > 0 then (
    Events.close log;
    exit 1)
  else Cli.finish ~log ~interrupted:false ()
