(* The public face of the VM: the {!Rt} vocabulary (configs, outcomes,
   results), the one engine dispatcher, and the one rendering of a run. *)

include Rt

let run_image ~config image =
  if front_end_of config <> image.key then
    invalid_arg "Vm.run_image: the image was prepared for another front end";
  match config.engine with
  | Eng_vm -> Vm_slot.run ~config image
  | Eng_ref -> Vm_ref.run ~config image
  | Eng_closure -> Vm_closure.run ~config image

let run ?(config = default_config) prog = run_image ~config (prepare config prog)

let preparer prog =
  let images = ref [] in
  fun config ->
    let key = front_end_of config in
    match List.assoc_opt key !images with
    | Some image -> image
    | None ->
      let image = prepare config prog in
      images := (key, image) :: !images;
      image

let outcome_string = function
  | Finished v -> "finished:" ^ Int64.to_string v
  | Trapped t -> "trapped:" ^ Ifp_isa.Trap.to_string t
  | Aborted r -> "aborted:" ^ abort_reason_string r

let trace_event_string = function
  | T_promote { ptr; outcome; bounds } ->
    Printf.sprintf "promote:%Lx:%s:%s" ptr outcome bounds
  | T_register { what; ptr; size } -> Printf.sprintf "register:%s:%Lx:%d" what ptr size
  | T_deregister { what; ptr } -> Printf.sprintf "deregister:%s:%Lx" what ptr
  | T_trap m -> "trap:" ^ m

let observe r =
  {
    Ifp_faultinject.Verdict.outcome =
      (match r.outcome with
      | Finished n -> `Finished n
      | Trapped t -> `Trapped t
      | Aborted m -> `Aborted (abort_reason_string m));
    output = r.output;
  }
