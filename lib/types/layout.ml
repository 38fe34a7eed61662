type element = { parent : int; base : int; bound : int; elem_size : int }

type step = Field of string | Index

type path = step list

(* Path-resolution tree mirroring the subobject structure. [children] maps
   struct-field names to nodes; [into] is the node reached by an [Index]
   step when the array element is itself an array (row descent), [None]
   when an [Index] step stays on the same element. *)
type node = { idx : int; children : (string * node) list; into : node option }

type t = { elems : element array; tree : node }

let elements t = t.elems
let length t = Array.length t.elems

let get t i =
  if i < 0 || i >= Array.length t.elems then invalid_arg "Layout.get";
  t.elems.(i)

let build env ty =
  let acc = ref [] in
  let count = ref 0 in
  let add e =
    let i = !count in
    incr count;
    acc := e :: !acc;
    i
  in
  let size = Ctype.sizeof env ty in
  let elem0_stride =
    (* For a root array the stride element 0 exposes to its children is the
       array element size, so that heap arrays of T share T's table. *)
    match ty with Ctype.Array (elt, _) -> Ctype.sizeof env elt | _ -> size
  in
  let _ = add { parent = 0; base = 0; bound = size; elem_size = elem0_stride } in
  let rec visit_struct sname ~frame ~frame_off =
    let fields = Ctype.fields_with_offsets env sname in
    List.filter_map
      (fun ((f : Ctype.field), off) ->
        let abs = frame_off + off in
        match f.fty with
        | Ctype.Void -> None
        | Ctype.(I8 | I16 | I32 | I64 | F64 | Ptr _) ->
          let sz = Ctype.sizeof env f.fty in
          let idx =
            add { parent = frame; base = abs; bound = abs + sz; elem_size = sz }
          in
          Some (f.fname, { idx; children = []; into = None })
        | Ctype.Struct s2 ->
          let sz = Ctype.sizeof env f.fty in
          let idx =
            add { parent = frame; base = abs; bound = abs + sz; elem_size = sz }
          in
          (* flattened: nested-struct children stay in the same frame *)
          let children = visit_struct s2 ~frame ~frame_off:abs in
          Some (f.fname, { idx; children; into = None })
        | Ctype.Array (elt, n) ->
          Some (f.fname, visit_array elt n ~frame ~off:abs))
      fields
  and visit_array elt n ~frame ~off =
    let esz = Ctype.sizeof env elt in
    let idx =
      add { parent = frame; base = off; bound = off + (n * esz); elem_size = esz }
    in
    match elt with
    | Ctype.Struct s ->
      { idx; children = visit_struct s ~frame:idx ~frame_off:0; into = None }
    | Ctype.Array (e2, n2) ->
      { idx; children = []; into = Some (visit_array e2 n2 ~frame:idx ~off:0) }
    | Ctype.(Void | I8 | I16 | I32 | I64 | F64 | Ptr _) ->
      { idx; children = []; into = None }
  in
  let children =
    match ty with
    | Ctype.Struct s -> visit_struct s ~frame:0 ~frame_off:0
    | Ctype.Array (Ctype.Struct s, _) -> visit_struct s ~frame:0 ~frame_off:0
    | Ctype.Array (Ctype.Array (e2, n2), _) ->
      [ ("", visit_array e2 n2 ~frame:0 ~off:0) ]
    | Ctype.(Void | I8 | I16 | I32 | I64 | F64 | Ptr _ | Array _) -> []
  in
  let tree = { idx = 0; children; into = None } in
  { elems = Array.of_list (List.rev !acc); tree }

let index_of_path t path =
  let rec go node = function
    | [] -> Some node.idx
    | Field f :: rest -> (
      match List.assoc_opt f node.children with
      | None -> None
      | Some child -> go child rest)
    | Index :: rest -> (
      match node.into with
      | Some row -> go row rest
      | None -> go node rest)
  in
  go t.tree path

let narrow t ~obj_base ~obj_size ~addr ~index =
  let n = Array.length t.elems in
  if index < 0 || index >= n then None
  else
    let obj_hi = Int64.add obj_base (Int64.of_int obj_size) in
    if Int64.compare addr obj_base < 0 || Int64.compare addr obj_hi >= 0 then
      None
    else
      let rec bounds_of idx =
        if idx = 0 then (obj_base, obj_hi)
        else
          let e = t.elems.(idx) in
          let pb, _ = bounds_of e.parent in
          let stride = t.elems.(e.parent).elem_size in
          let off = Int64.to_int (Int64.sub addr pb) in
          let frame =
            if stride <= 0 then pb
            else Int64.add pb (Int64.of_int (off / stride * stride))
          in
          ( Int64.add frame (Int64.of_int e.base),
            Int64.add frame (Int64.of_int e.bound) )
      in
      let lo, hi = bounds_of index in
      (* a subobject index inconsistent with the address (e.g. after a bad
         cast) must never widen protection past the object: clamp, and
         treat an empty result as a failed narrowing (paper §3: only the
         object-bounds guarantee survives an incorrect cast) *)
      let lo = if Int64.compare lo obj_base < 0 then obj_base else lo in
      let hi = if Int64.compare hi obj_hi > 0 then obj_hi else hi in
      if Int64.compare lo hi >= 0 then None else Some (lo, hi)

let walk_steps t ~index =
  let rec go idx acc =
    if idx = 0 then acc
    else go t.elems.(idx).parent (acc + 1)
  in
  if index <= 0 || index >= Array.length t.elems then 0 else go index 0

let pp fmt t =
  Format.fprintf fmt "@[<v>layout (%d elements):@," (Array.length t.elems);
  Array.iteri
    (fun i e ->
      Format.fprintf fmt "  %d: parent=%d [%d,%d) size=%d@," i e.parent e.base
        e.bound e.elem_size)
    t.elems;
  Format.fprintf fmt "@]"
