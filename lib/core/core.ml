(** In-Fat Pointer: public entry point.

    This module re-exports the whole stack under one namespace:

    {ul
    {- {!Ctype}, {!Layout} — the C-like type language and layout tables}
    {- {!Tag}, {!Bounds}, {!Insn}, {!Trap} — the ISA extension}
    {- {!Memory}, {!Cache} — the simulated machine}
    {- {!Mac}, {!Meta}, {!Promote} — object metadata schemes and the
       promote engine}
    {- {!Alloc}, {!Baseline_alloc}, {!Wrapped_alloc}, {!Subheap_alloc},
       {!Buddy} — the runtime-library allocators}
    {- {!Ir}, {!Typecheck}, {!Frontend}, {!Instrument}, {!Resolve} — MiniC
       and the compiler passes}
    {- {!Vm}, {!Engines}, {!Counters}, {!Cost}, {!Memmap} — the
       execution engines (closure-compiled by default, the slot-resolved
       interpreter, the reference tree walker) behind the one entry
       point {!Vm.run_image}, and their support}
    {- {!Report} — multi-variant evaluation harness (Table 4 /
       Fig. 10–12 rows)}}

    Quickstart: build a MiniC program with the {!Ir} DSL and run it under
    all configurations with {!Report.evaluate}, or run a single variant
    with {!Vm.run} ({!Vm.prepare} and {!Vm.run_image} to run one program
    under several configs). Both run on the closure-compiled engine, the default
    of every named config; set [config.engine] to pick another (the
    result is the same). *)

module Bits = Ifp_util.Bits
module Prng = Ifp_util.Prng
module Stats = Ifp_util.Stats
module Table = Ifp_util.Table
module Memory = Ifp_machine.Memory
module Cache = Ifp_machine.Cache
module Ctype = Ifp_types.Ctype
module Layout = Ifp_types.Layout
module Tag = Ifp_isa.Tag
module Bounds = Ifp_isa.Bounds
module Insn = Ifp_isa.Insn
module Trap = Ifp_isa.Trap
module Mac = Ifp_metadata.Mac
module Meta = Ifp_metadata.Meta
module Promote = Ifp_metadata.Promote
module Alloc = Ifp_alloc.Alloc_intf
module Baseline_alloc = Ifp_alloc.Baseline
module Wrapped_alloc = Ifp_alloc.Wrapped
module Subheap_alloc = Ifp_alloc.Subheap_alloc
module Mixed_alloc = Ifp_alloc.Mixed
module Buddy = Ifp_alloc.Buddy
module Ir = Ifp_compiler.Ir
module Ir_pp = Ifp_compiler.Ir_pp
module Lexer = Ifp_compiler.Lexer
module Parser = Ifp_compiler.Parser
module Typecheck = Ifp_compiler.Typecheck
module Frontend = Ifp_compiler.Frontend
module Instrument = Ifp_compiler.Instrument
module Resolve = Ifp_compiler.Resolve
module Vm = Ifp_vm.Vm
module Engines = Ifp_vm.Engines
module Counters = Ifp_vm.Counters
module Cost = Ifp_vm.Cost
module Memmap = Ifp_vm.Memmap
module Report = Report
