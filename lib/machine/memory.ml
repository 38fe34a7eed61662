let page_size = 4096
let page_shift = 12

type page = { data : Bytes.t }

(* Direct-mapped page-lookup cache. One entry is not enough: an
   instrumented run interleaves data accesses with metadata-region
   accesses and a single slot thrashes between them. *)
let pcache_slots = 256

let pcache_mask = pcache_slots - 1

(* The slot of page [pno]. The regions of the memory map start at
   power-of-two-aligned addresses, so their first pages all have the
   same low page-number bits and [pno land pcache_mask] would put them
   in one slot (heap, global table and layout region all in slot 0):
   a promote's metadata read and the field access after it would evict
   each other. Folding in the next eight bits spreads them. *)
let[@inline] slot pno = (pno + (pno lsr 8)) land pcache_mask

(* Page numbers are non-negative and dense within a region, so the
   identity is a good hash; unlike [Hashtbl.hash] and polymorphic
   equality it costs no C call. *)
module Pages = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash p = p
end)

(* The mapped set is a handful of large contiguous regions (globals,
   layout table, stack, heap), so it is kept as a sorted list of
   disjoint page-number intervals instead of a per-page table: mapping
   a 256 MiB heap is one cons, not 65536 hashtable inserts. *)
type t = {
  pages : page Pages.t;
  mutable mapped : (int * int) list; (* inclusive pno intervals, sorted *)
  pcache_pno : int array; (* -1 = empty *)
  pcache_page : page array;
}

type fault_kind = Unmapped | Misaligned

exception Fault of fault_kind * int64

let dummy_page = { data = Bytes.create 0 }

(* Pages of finished runs, kept per domain for the next run on the same
   domain (campaign workers are domains, so a pool shared between them
   would need a lock). A short run (a fuzz case) touches a handful of
   pages; taking them from here instead of allocating a fresh 4 KiB
   [Bytes] spares the major heap most of its direct allocations. The
   cap bounds the memory a domain keeps between runs. *)
let pool_cap = 32

type pool = { free : page array; mutable n_free : int }

let pool_key =
  Domain.DLS.new_key (fun () -> { free = Array.make pool_cap dummy_page; n_free = 0 })

let pooled_pages () = (Domain.DLS.get pool_key).n_free

(* A zero-filled page: a pooled one wiped, or a fresh one. *)
let new_page () =
  let pool = Domain.DLS.get pool_key in
  if pool.n_free = 0 then { data = Bytes.make page_size '\000' }
  else begin
    let n = pool.n_free - 1 in
    let p = pool.free.(n) in
    pool.free.(n) <- dummy_page;
    pool.n_free <- n;
    Bytes.fill p.data 0 page_size '\000';
    p
  end

let create () =
  {
    (* small enough to be a minor-heap allocation: a short run (a fuzz
       case) touches a handful of pages, and a long one grows the table
       by doubling *)
    pages = Pages.create 64;
    mapped = [];
    pcache_pno = Array.make pcache_slots (-1);
    pcache_page = Array.make pcache_slots dummy_page;
  }

let[@inline] pno_of_addr a =
  Int64.to_int (Int64.shift_right_logical (Ifp_util.Bits.u48 a) page_shift)

(* insert [lo,hi] into a sorted disjoint interval list, merging
   overlapping or adjacent intervals *)
let rec iv_add lo hi = function
  | [] -> [ (lo, hi) ]
  | (l, h) :: rest when h + 1 < lo -> (l, h) :: iv_add lo hi rest
  | (l, h) :: rest when hi + 1 < l -> (lo, hi) :: (l, h) :: rest
  | (l, h) :: rest -> iv_add (Ifp_util.Bits.imin l lo) (Ifp_util.Bits.imax h hi) rest

(* remove [lo,hi], splitting intervals that straddle an endpoint *)
let rec iv_remove lo hi = function
  | [] -> []
  | (l, h) :: rest when h < lo -> (l, h) :: iv_remove lo hi rest
  | (l, h) :: rest when hi < l -> (l, h) :: rest
  | (l, h) :: rest ->
    let tail = if h > hi then (hi + 1, h) :: rest else iv_remove lo hi rest in
    if l < lo then (l, lo - 1) :: tail else tail

let rec iv_mem p = function
  | [] -> false
  | (l, h) :: rest -> if p < l then false else p <= h || iv_mem p rest

let map t ~base ~size =
  if size < 0 then invalid_arg "Memory.map";
  if size > 0 then begin
    let first = pno_of_addr base in
    let last = pno_of_addr (Int64.add base (Int64.of_int (size - 1))) in
    t.mapped <- iv_add first last t.mapped
  end

let unmap t ~base ~size =
  let open Int64 in
  let b = Ifp_util.Bits.u48 base in
  let e = add b (of_int size) in
  let first_full =
    to_int (shift_right_logical (Ifp_util.Bits.align_up64 b page_size) page_shift)
  in
  let last_full =
    to_int (shift_right_logical (Ifp_util.Bits.align_down64 e page_size) page_shift)
    - 1
  in
  if last_full >= first_full then begin
    t.mapped <- iv_remove first_full last_full t.mapped;
    for p = first_full to last_full do
      Pages.remove t.pages p;
      let s = slot p in
      if t.pcache_pno.(s) = p then begin
        t.pcache_pno.(s) <- -1;
        t.pcache_page.(s) <- dummy_page
      end
    done
  end

let release t =
  let pool = Domain.DLS.get pool_key in
  Pages.iter
    (fun _ p ->
      if pool.n_free < pool_cap then begin
        pool.free.(pool.n_free) <- p;
        pool.n_free <- pool.n_free + 1
      end)
    t.pages;
  Pages.reset t.pages;
  t.mapped <- [];
  Array.fill t.pcache_pno 0 pcache_slots (-1);
  Array.fill t.pcache_page 0 pcache_slots dummy_page

let is_mapped t a = iv_mem (pno_of_addr a) t.mapped

(* page-cache miss: out of line, so the inlined hit path stays small *)
let fill_page t a pno s =
  if not (iv_mem pno t.mapped) then raise (Fault (Unmapped, a));
  let page =
    match Pages.find_opt t.pages pno with
    | Some p -> p
    | None ->
      let p = new_page () in
      Pages.replace t.pages pno p;
      p
  in
  Array.unsafe_set t.pcache_pno s pno;
  Array.unsafe_set t.pcache_page s page;
  page

let[@inline] get_page t a =
  let pno = pno_of_addr a in
  let s = slot pno in
  if Array.unsafe_get t.pcache_pno s = pno then Array.unsafe_get t.pcache_page s
  else fill_page t a pno s

let[@inline] off_of_addr a = Int64.to_int (Int64.logand a 0xFFFL)

let read_u8 t a =
  let p = get_page t a in
  Char.code (Bytes.unsafe_get p.data (off_of_addr a))

let write_u8 t a v =
  let p = get_page t a in
  Bytes.unsafe_set p.data (off_of_addr a) (Char.unsafe_chr (v land 0xFF))

let xor_u8 t a mask = write_u8 t a (read_u8 t a lxor (mask land 0xFF))

(* A page-straddling store must fault before any byte is committed, so
   validate (and materialise) both pages up front. Fault addresses match
   the byte-wise commit order: an unmapped low page faults at [a], an
   unmapped high page at the first byte past the page boundary. *)
let check_straddle t a =
  let off = off_of_addr a in
  ignore (get_page t a);
  ignore (get_page t (Int64.add a (Int64.of_int (page_size - off))))

(* Fast paths when the whole access fits in one page; otherwise byte-wise.
   The reads are inlined at call sites in other libraries (the promote
   core and the metadata probes read through them), with the
   page-straddling case out of line. *)
let read_u16_straddle t a = read_u8 t a lor (read_u8 t (Int64.add a 1L) lsl 8)

let[@inline] read_u16 t a =
  let off = off_of_addr a in
  if off <= page_size - 2 then
    let p = get_page t a in
    Char.code (Bytes.unsafe_get p.data off)
    lor (Char.code (Bytes.unsafe_get p.data (off + 1)) lsl 8)
  else read_u16_straddle t a

let write_u16 t a v =
  let off = off_of_addr a in
  if off <= page_size - 2 then begin
    let p = get_page t a in
    Bytes.unsafe_set p.data off (Char.unsafe_chr (v land 0xFF));
    Bytes.unsafe_set p.data (off + 1) (Char.unsafe_chr ((v lsr 8) land 0xFF))
  end
  else begin
    check_straddle t a;
    write_u8 t a (v land 0xFF);
    write_u8 t (Int64.add a 1L) ((v lsr 8) land 0xFF)
  end

let read_u32_straddle t a =
  let lo = read_u16 t a and hi = read_u16 t (Int64.add a 2L) in
  Int64.logor (Int64.of_int lo) (Int64.shift_left (Int64.of_int hi) 16)

let[@inline] read_u32 t a =
  let off = off_of_addr a in
  if off <= page_size - 4 then
    let p = get_page t a in
    Int64.logand (Int64.of_int32 (Bytes.get_int32_le p.data off)) 0xFFFFFFFFL
  else read_u32_straddle t a

let write_u32 t a v =
  let off = off_of_addr a in
  if off <= page_size - 4 then begin
    let p = get_page t a in
    Bytes.set_int32_le p.data off (Int64.to_int32 v)
  end
  else begin
    check_straddle t a;
    write_u16 t a (Int64.to_int (Int64.logand v 0xFFFFL));
    write_u16 t (Int64.add a 2L)
      (Int64.to_int (Int64.logand (Int64.shift_right_logical v 16) 0xFFFFL))
  end

let read_u64_straddle t a =
  let lo = read_u32 t a and hi = read_u32 t (Int64.add a 4L) in
  Int64.logor lo (Int64.shift_left hi 32)

let[@inline] read_u64 t a =
  let off = off_of_addr a in
  if off <= page_size - 8 then
    let p = get_page t a in
    Bytes.get_int64_le p.data off
  else read_u64_straddle t a

let write_u64 t a v =
  let off = off_of_addr a in
  if off <= page_size - 8 then begin
    let p = get_page t a in
    Bytes.set_int64_le p.data off v
  end
  else begin
    check_straddle t a;
    write_u32 t a (Int64.logand v 0xFFFFFFFFL);
    write_u32 t (Int64.add a 4L) (Int64.shift_right_logical v 32)
  end

let read_size t a ~bytes =
  match bytes with
  | 1 -> Int64.of_int (read_u8 t a)
  | 2 -> Int64.of_int (read_u16 t a)
  | 4 -> read_u32 t a
  | 8 -> read_u64 t a
  | _ -> invalid_arg "Memory.read_size"

let write_size t a ~bytes v =
  match bytes with
  | 1 -> write_u8 t a (Int64.to_int (Int64.logand v 0xFFL))
  | 2 -> write_u16 t a (Int64.to_int (Int64.logand v 0xFFFFL))
  | 4 -> write_u32 t a v
  | 8 -> write_u64 t a v
  | _ -> invalid_arg "Memory.write_size"

let fill t a ~len c =
  for i = 0 to len - 1 do
    write_u8 t (Int64.add a (Int64.of_int i)) (Char.code c)
  done

let blit_string t a s =
  String.iteri (fun i c -> write_u8 t (Int64.add a (Int64.of_int i)) (Char.code c)) s

let read_string t a ~len =
  String.init len (fun i -> Char.chr (read_u8 t (Int64.add a (Int64.of_int i))))

let mapped_bytes t =
  List.fold_left (fun acc (l, h) -> acc + (h - l + 1)) 0 t.mapped * page_size
