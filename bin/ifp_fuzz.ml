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
   never collide with plain runs), SIGINT/SIGTERM graceful drain (exit
   130). A killed campaign re-run with the same --cache-dir resumes from
   the cache and reaches the same final report.

   Usage: ifp_fuzz [OPTION]... (`--help` lists the options). The
   one-shot modes --repro, --shrink, --canon and --emit-seed run after
   every flag is read, whatever the order. *)

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

(* the one-shot modes; without one, ifp_fuzz runs a campaign *)
type mode = Campaign | Repro of string | Shrink of string | Canon of string | Emit of int64

type opts = {
  mutable seed : int64;
  mutable rounds : int;
  mutable cases : int;
  mutable dry : int;
  mutable quick : bool;
  campaign : Cli.campaign;
  mutable corpus : string;
  mutable out : string;
  mutable mode : mode;
  mutable fault_seed : int64;
}

let parse_opts () =
  let o =
    {
      seed = 1L;
      rounds = 8;
      cases = 250;
      dry = 2;
      quick = false;
      campaign = { Cli.workers = 1; cache_dir = None; log_path = Some "fuzz.jsonl" };
      corpus = "test/golden/fuzz";
      out = "BENCH_fuzz.json";
      mode = Campaign;
      fault_seed = 1L;
    }
  in
  let count f = Cli.nat (fun n -> f (max 1 n)) in
  Cli.parse
    ~usage:
      "usage: ifp_fuzz [OPTION]...\n\
       Runs a campaign, or one of the modes --repro, --shrink, --canon and\n\
       --emit-seed after reading every other flag."
    (Cli.campaign_specs o.campaign
    @ [
        ("--seed", Cli.int64 (fun n -> o.seed <- n), "S Campaign seed (default 1)");
        ("--rounds", count (fun n -> o.rounds <- n), "N Round cap (default 8)");
        ("--cases", count (fun n -> o.cases <- n), "N Cases per round (default 250)");
        ( "--dry",
          count (fun n -> o.dry <- n),
          "K Stop after K rounds with no new counterexample (default 2)" );
        ("--quick", Arg.Unit (fun () -> o.quick <- true), " Small generated programs");
        ( "--corpus",
          Arg.String (fun d -> o.corpus <- d),
          "DIR Counterexample corpus (default " ^ o.corpus ^ ")" );
        ( "--out",
          Arg.String (fun f -> o.out <- f),
          "FILE Campaign aggregate (default " ^ o.out ^ ")" );
        ( "--repro",
          Arg.String (fun t -> o.mode <- Repro t),
          "FILE-or-DIGEST Replay a file or a corpus entry by digest prefix" );
        ( "--shrink",
          Arg.String (fun f -> o.mode <- Shrink f),
          "FILE Minimize a diverging program" );
        ( "--canon",
          Arg.String (fun f -> o.mode <- Canon f),
          "FILE Reprint a program canonically" );
        ( "--emit-seed",
          Cli.int64 (fun s -> o.mode <- Emit s),
          "S Print the generated source for case seed S" );
        ( "--fault-seed",
          Cli.int64 (fun n -> o.fault_seed <- n),
          "S Fault plan seed for --repro and --shrink (default 1)" );
      ])
    (fun s -> raise (Arg.Bad ("unexpected argument " ^ s)));
  o

(* ---------------- repro mode ---------------- *)

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
        exit 1
      | many ->
        Printf.eprintf "repro: ambiguous digest %s (%s)\n" target
          (String.concat ", " (List.map fst many));
        exit 1
  in
  let src, prog = Cli.load_minic path in
  Printf.printf "== repro %s (digest %s, fault seed %Ld) ==\n" path
    (Fuzz.text_digest src) opts.fault_seed;
  (* the full engine x config matrix, with signatures kept for diffing;
     the configs share one image per front-end key *)
  let image = Vm.preparer prog in
  let matrix =
    List.map
      (fun (cname, cfg) ->
        ( cname,
          List.map
            (fun engine ->
              let r = Vm.run_image ~config:{ cfg with Vm.engine } (image cfg) in
              (Engines.to_string engine, r, Oracle.result_sig r))
            Engines.all ))
      Oracle.configs
  in
  let header = [ "config"; "engine"; "outcome"; "cycles"; "output" ] in
  let body =
    List.concat_map
      (fun (cname, per_engine) ->
        List.map
          (fun (ename, (r : Vm.result), _) ->
            [ cname; ename; Vm.outcome_string r.outcome;
              string_of_int r.counters.Ifp_vm.Counters.cycles;
              String.concat "|" r.output ])
          per_engine)
      matrix
  in
  print_string (Table.render ~header body);
  (* per-config engine diffs: every divergent line, unified style *)
  List.iter
    (fun (cname, per_engine) ->
      match per_engine with
      | (ref_name, _, ref_sig) :: rest ->
        List.iter
          (fun (ename, _, s) ->
            if not (String.equal s ref_sig) then begin
              Printf.printf "\n-- %s: %s vs %s diverge --\n" cname ref_name
                ename;
              List.iter
                (fun (a, b) ->
                  Option.iter (Printf.printf "  -%s\n") a;
                  Option.iter (Printf.printf "  +%s\n") b)
                (Oracle.line_diff ref_sig s)
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

(* ---------------- the other one-shot modes ---------------- *)

(* minimize a diverging source file and print the result *)
let shrink opts path =
  let _, prog = Cli.load_minic path in
  let fault_seed = opts.fault_seed in
  match Oracle.check ~fault_seed prog with
  | [], _ ->
    Printf.eprintf "%s: no divergence to minimize\n" path;
    exit 1
  | f :: _, _ ->
    let key = Oracle.failure_key f in
    let small = Fuzz.minimize ~fault_seed ~key prog in
    print_string (Ifp_compiler.Ir_pp.program_to_string small)

let one_shot opts = function
  | Campaign -> ()
  | Repro target -> repro opts target
  | Shrink path ->
    shrink opts path;
    exit 0
  | Canon path ->
    (* parse + typecheck + reprint: the corpus' canonical text form *)
    print_string (Ifp_compiler.Ir_pp.program_to_string (snd (Cli.load_minic path)));
    exit 0
  | Emit seed ->
    (* debug aid: print the generated source for a raw case seed *)
    let knobs = if opts.quick then Gen.quick else Gen.default in
    print_string (Gen.source ~knobs ~seed ());
    exit 0

(* ---------------- campaign mode ---------------- *)

let () =
  let opts = parse_opts () in
  one_shot opts opts.mode;
  let knobs = if opts.quick then Gen.quick else Gen.default in
  let cache = Option.map (fun dir -> Rcache.create ~dir ()) opts.campaign.cache_dir in
  let stop = Cli.install_interrupt () in
  let log = Cli.open_log ~path:opts.campaign.log_path in
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
      Engine.run ~workers:opts.campaign.workers ?cache ~log ~stop ~runner:Fuzz.runner
        jobs
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
            Fuzz.minimize ~fault_seed ~key:(List.hd keys) j.Job.prog
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
