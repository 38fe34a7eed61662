(* The public face of the VM: the {!Rt} vocabulary (configs, outcomes,
   results) and the one engine dispatcher. *)

include Rt

let run ?(config = default_config) prog =
  match config.engine with
  | Eng_vm -> Vm_slot.run ~config prog
  | Eng_ref -> Vm_ref.run ~config prog
  | Eng_closure -> Vm_closure.run ~config prog
