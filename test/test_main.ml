let () =
  Alcotest.run "infat-pointer"
    [
      ("util", Test_util.tests);
      ("machine", Test_machine.tests);
      ("types", Test_types.tests);
      ("layout-random", Test_layout_random.tests);
      ("isa", Test_isa.tests);
      ("metadata", Test_metadata.tests);
      ("alloc", Test_alloc.tests);
      ("compiler", Test_compiler.tests);
      ("resolve", Test_resolve.tests);
      ("vm", Test_vm.tests);
      ("engines", Test_engines.tests);
      ("pipeline", Test_pipeline.tests);
      ("juliet", Test_juliet.tests);
      ("models", Test_models.tests);
      ("extensions", Test_extensions.tests);
      ("lexer", Test_lexer.tests);
      ("parser", Test_parser.tests);
      ("trace-report", Test_trace_report.tests);
      ("campaign", Test_campaign.tests);
      ("chaos", Test_chaos.tests);
      ("faultinject", Test_faultinject.tests);
      ("guarantees", Test_guarantees.tests);
      ("fuzz", Test_fuzz.tests);
      ("temporal", Test_temporal.tests);
      ("paper", Test_paper.tests);
      ("workloads", Test_paper.workload_tests);
    ]
