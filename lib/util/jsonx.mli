(** Minimal self-contained JSON.

    The container ships no JSON library, so the repo carries its own
    emitter and recursive-descent parser.  The dialect is plain RFC 8259
    minus surrogate-pair refinements: good enough for round-tripping the
    campaign harness's cache files and journal lines and the serve
    layer's request/response bodies, which is all it is used for.
    Non-finite floats serialize as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Single-line rendering (JSONL-friendly). *)

val of_string : string -> t
(** @raise Failure on malformed input, with a byte offset in the message. *)

(** {2 Accessors}

    [member] is total; the [to_*] projections raise [Failure] on a
    constructor mismatch.  [to_float] accepts [Int] (JSON does not
    distinguish), and [get] raises on a missing key. *)

val member : string -> t -> t option
val get : string -> t -> t
val to_int : t -> int
val to_float : t -> float
val to_str : t -> string
val to_list : t -> t list
val to_obj : t -> (string * t) list
