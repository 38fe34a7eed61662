type access = Load | Store

type t = {
  ways : int;
  mutable set_mask : int; (* sets - 1; sets is a power of two *)
  line_shift : int;
  mutable tags : int array; (* sets * ways, -1 = invalid; lines are < 2^48
                               so they fit an immediate int and tag
                               compares stay unboxed *)
  mutable lru : int array; (* sets * ways: higher = more recently used *)
  mutable clock : int;
  mutable n_accesses : int;
  mutable n_misses : int;
}

(* The arrays of a released model, kept per domain for the next model
   that domain creates with the same geometry. A domain runs one
   machine at a time, so one spare pair is all its next run can use. *)
let spare_key : (int array * int array) option ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref None)

let create ?(size_bytes = 32768) ?(ways = 8) ?(line_bytes = 64) () =
  if not (Ifp_util.Bits.is_pow2 line_bytes) then invalid_arg "Cache.create";
  let lines = size_bytes / line_bytes in
  if lines mod ways <> 0 then invalid_arg "Cache.create";
  let sets = lines / ways in
  if not (Ifp_util.Bits.is_pow2 sets) then invalid_arg "Cache.create";
  let spare = Domain.DLS.get spare_key in
  let tags, lru =
    match !spare with
    | Some (tags, lru) when Array.length tags = lines ->
      spare := None;
      Array.fill tags 0 lines (-1);
      Array.fill lru 0 lines 0;
      (tags, lru)
    | Some _ | None -> (Array.make lines (-1), Array.make lines 0)
  in
  {
    ways;
    set_mask = sets - 1;
    line_shift = Ifp_util.Bits.log2_exact line_bytes;
    tags;
    lru;
    clock = 0;
    n_accesses = 0;
    n_misses = 0;
  }

(* Lines are numbered from an address's low 48 bits, taken as an
   immediate int; sets is a power of two, so masking equals the modulo
   the set index needs. *)
let mask48 = (1 lsl 48) - 1
let[@inline] low48 addr = Int64.to_int addr land mask48

(* A miss fills the line over the least recently used way; out of line,
   so the inlined hit path stays small. *)
let miss t base line =
  t.n_misses <- t.n_misses + 1;
  let victim = ref 0 in
  for i = 1 to t.ways - 1 do
    if Array.unsafe_get t.lru (base + i) < Array.unsafe_get t.lru (base + !victim)
    then victim := i
  done;
  Array.unsafe_set t.tags (base + !victim) line;
  Array.unsafe_set t.lru (base + !victim) t.clock;
  false

(* The way search is a loop, not a local recursive function: a local
   function captures [t], [base] and [line] in a closure allocated on
   every probe. *)
let[@inline] access_line t line =
  t.n_accesses <- t.n_accesses + 1;
  t.clock <- t.clock + 1;
  let base = (line land t.set_mask) * t.ways in
  let i = ref 0 in
  while !i < t.ways && Array.unsafe_get t.tags (base + !i) <> line do
    incr i
  done;
  if !i < t.ways then begin
    Array.unsafe_set t.lru (base + !i) t.clock;
    true
  end
  else miss t base line

let access t addr _kind = access_line t (low48 addr lsr t.line_shift)

let access_range t addr ~bytes kind =
  ignore kind;
  if bytes <= 0 then 0
  else begin
    let line_bytes = 1 lsl t.line_shift in
    let a48 = low48 addr in
    let first = a48 land (line_bytes - 1) in
    let n_lines = (first + bytes + line_bytes - 1) / line_bytes in
    if n_lines = 1 then if access_line t (a48 lsr t.line_shift) then 0 else 1
    else begin
      let misses = ref 0 in
      for i = 0 to n_lines - 1 do
        let line = ((a48 + (i * line_bytes)) land mask48) lsr t.line_shift in
        if not (access_line t line) then incr misses
      done;
      !misses
    end
  end

let line_shift t = t.line_shift
let accesses t = t.n_accesses
let misses t = t.n_misses

let reset_stats t =
  t.n_accesses <- 0;
  t.n_misses <- 0

let flush t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.lru 0 (Array.length t.lru) 0;
  reset_stats t

let release t =
  let spare = Domain.DLS.get spare_key in
  spare := Some (t.tags, t.lru);
  (* what is left is a one-set model of its own, so a later access
     cannot touch the arrays the next model on this domain takes *)
  t.set_mask <- 0;
  t.tags <- Array.make t.ways (-1);
  t.lru <- Array.make t.ways 0;
  t.clock <- 0;
  reset_stats t
