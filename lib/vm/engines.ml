(* Engine names and the engine list. Dispatch on [config.engine] is
   {!Vm.run}'s; [run] is kept as its alias. *)

let of_string = function
  | "vm" -> Some Rt.Eng_vm
  | "vm-ref" -> Some Rt.Eng_ref
  | "closure" -> Some Rt.Eng_closure
  | _ -> None

let to_string = function
  | Rt.Eng_vm -> "vm"
  | Rt.Eng_ref -> "vm-ref"
  | Rt.Eng_closure -> "closure"

(* every engine, in presentation order (bench matrix columns); the head
   is the reference of Oracle.agree *)
let all = [ Rt.Eng_vm; Rt.Eng_ref; Rt.Eng_closure ]

let names = List.map to_string all

let run = Vm.run
