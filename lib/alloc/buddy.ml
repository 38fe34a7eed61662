type t = {
  base : int64;
  size_log2 : int;
  min_log2 : int;
  free_lists : (int, int64 list ref) Hashtbl.t;
  mutable high : int64; (* highest address handed out, relative end *)
  mutable in_use : int;
}

let create ~base ~size_log2 ~min_log2 =
  if min_log2 > size_log2 then invalid_arg "Buddy.create";
  if
    not
      (Int64.equal (Ifp_util.Bits.align_down64 base (1 lsl size_log2)) base)
  then invalid_arg "Buddy.create: misaligned base";
  let free_lists = Hashtbl.create 16 in
  Hashtbl.replace free_lists size_log2 (ref [ base ]);
  { base; size_log2; min_log2; free_lists; high = base; in_use = 0 }

let list_for t l =
  match Hashtbl.find_opt t.free_lists l with
  | Some r -> r
  | None ->
    let r = ref [] in
    Hashtbl.replace t.free_lists l r;
    r

let rec take t l =
  if l > t.size_log2 then None
  else
    let lst = list_for t l in
    match !lst with
    | b :: rest ->
      lst := rest;
      Some b
    | [] -> (
      (* split a bigger block *)
      match take t (l + 1) with
      | None -> None
      | Some b ->
        let half = Int64.add b (Int64.of_int (1 lsl l)) in
        let lst = list_for t l in
        lst := half :: !lst;
        Some b)

let alloc t log2 =
  let l = Ifp_util.Bits.imax log2 t.min_log2 in
  match take t l with
  | None -> None
  | Some b ->
    let top = Int64.add b (Int64.of_int (1 lsl l)) in
    if Int64.compare top t.high > 0 then t.high <- top;
    t.in_use <- t.in_use + (1 lsl l);
    Some b

let buddy_of t addr l =
  Int64.add t.base
    (Int64.logxor (Int64.sub addr t.base) (Int64.of_int (1 lsl l)))

let rec insert t addr l =
  if l >= t.size_log2 then begin
    let lst = list_for t l in
    lst := addr :: !lst
  end
  else
    let buddy = buddy_of t addr l in
    let lst = list_for t l in
    if List.exists (Int64.equal buddy) !lst then begin
      lst := List.filter (fun b -> not (Int64.equal b buddy)) !lst;
      let merged = if Int64.compare addr buddy < 0 then addr else buddy in
      insert t merged (l + 1)
    end
    else lst := addr :: !lst

let free t addr log2 =
  let l = Ifp_util.Bits.imax log2 t.min_log2 in
  t.in_use <- t.in_use - (1 lsl l);
  insert t addr l

let high_water t = t.high
let bytes_in_use t = t.in_use
