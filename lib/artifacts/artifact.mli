(** A paper artifact as typed data: one table or figure of the
    evaluation with its typed cells, the free-text lines around it and
    the claims the paper makes about it.

    Every artifact prints through {!render} and reaches the run
    aggregate through {!to_json}; claims are predicates over the
    artifact's own cells and line values, so what is printed is what is
    checked. *)

type fmt = (float -> string, unit, string) format

type count_fmt =
  | Plain  (** ["%d"] *)
  | Sci  (** ["%d"] below 100000, ["%.2e"] from there *)
  | Out_of of int  (** ["n/total"] *)
  | Share of int
      (** ["n (p%)"]: [n] as {!Sci}, [p] the integer percentage of [n]
          that the argument is; ["0"] when [n = 0] *)

type ratio_fmt =
  | Times of fmt  (** e.g. ["%.2fx"] *)
  | Change  (** as {!Ifp_util.Stats.percent}: [1.12] is ["+12.0%"] *)

type cell =
  | Count of int * count_fmt
  | Ratio of float * ratio_fmt
  | Percent of float * fmt  (** a value in percent, e.g. ["%.1f%%"] *)
  | Status of string  (** [Report.status_string]: ["ok"] or what broke *)
  | Text of string

type table = { columns : string list; rows : cell list list }

type line = { template : string; values : (string * cell) list }
(** A free-text line: each [{name}] in [template] prints the value
    [name]. *)

type block = Table of table | Line of line | Blank

type claim = { name : string; holds : bool }

type t = {
  id : string;  (** the experiment target that prints it *)
  title : string;
  body : block list;
  claims : claim list;
}

val make : id:string -> title:string -> block list -> (string * (t -> bool)) list -> t
(** Evaluates each named predicate on the artifact. A predicate that
    raises [Not_found], [Failure] or [Invalid_argument] (a missing row,
    column or value) does not hold. *)

val line : string -> (string * cell) list -> block
val text : string -> block
(** A line without values. *)

val cell_text : cell -> string
val num : cell -> float
(** A cell's number as it prints: the count (of [n/total], [n]), ratio
    or percent at its format's precision, so a claim compares what the
    table shows ([Ratio (0.9996, Change)] prints ["-0.0%"] and is
    [1.0]); [nan] for status and text. *)

val rows : t -> (string -> cell) list
(** The rows of the artifact's table, each as a lookup by column name
    (the first column of that name). *)

val row : t -> string -> string -> cell
(** [row a key col]: the cell in column [col] of the table row whose
    first cell prints [key]. Raises [Not_found]. *)

val value : t -> string -> cell
(** The value named so in one of the artifact's lines. Raises
    [Not_found]. *)

val render : t -> string
(** ["== title =="], the body, then a blank line. *)

val to_json : t -> Ifp_campaign.Events.json
(** [{id, title, tables, lines, claims}]: table rows as arrays of cell
    values in column order, each line with its text and named values,
    each claim with its verdict. A count is a number, [n/total] is
    [{n, of}], [n (p%)] is [{n, part}], ratios and percents are
    numbers, status and text are strings. *)

val failed : t list -> (t * claim) list
(** Every claim that does not hold, with its artifact. *)
