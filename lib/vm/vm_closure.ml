(* The closure-compiled engine: same observable behaviour as {!Vm_slot}
   and {!Vm_ref}, different execution strategy. The program is compiled once
   per run — after globals setup, with the full machine state known — by
   {!Compile}, and execution is a single call into main's compiled body.
   Compilation is host-side work and charges nothing, matching the
   interpreter (whose dispatch is equally uncharged). *)

let run ~config image : Rt.result =
  Rt.run_with ~config image ~main_body:(fun st frame mainf ->
      ignore mainf;
      match Compile.run_main (Compile.program st) frame with
      | Some v -> raise (Rt.Return_exc v)
      | None -> ())
