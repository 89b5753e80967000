(** A minimal, dependency-free JSON reader/writer for the bench
    trajectory ([BENCH_HISTORY.json]). Strict on input (no trailing garbage, no
    NaN/Infinity literals, no comments) and canonical on output
    (floats printed with ["%.17g"], so every finite double
    round-trips bit-for-bit). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** [parse s] parses exactly one JSON value spanning all of [s]
    (surrounding whitespace allowed). Numbers are IEEE doubles;
    [Error] carries a character offset and reason. *)
val parse : string -> (t, string) result

(** [to_string t] prints compact single-line JSON. Raises
    [Invalid_argument] on a non-finite [Num] — JSON has no NaN or
    infinities, and the bench records must have rejected them
    earlier. *)
val to_string : t -> string

(** [pretty t] is [to_string] with two-space indentation and one
    object member / array element per line — the shape the checked-in
    trajectory file uses so diffs stay reviewable. *)
val pretty : t -> string

(** [member name t] is the value of field [name] of an [Obj]. *)
val member : string -> t -> t option

(** Typed field accessors: [Error] names the missing/mistyped field. *)

val str_field : string -> t -> (string, string) result
val num_field : string -> t -> (float, string) result
val bool_field : string -> t -> (bool, string) result
val int_field : string -> t -> (int, string) result
val list_field : string -> t -> (t list, string) result
