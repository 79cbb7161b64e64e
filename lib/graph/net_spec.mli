(** The named networks of the command line and the serve API: ["line:K"]
    (a directed path of [K] edges) and ["ring:K"] (a directed cycle of [K]
    edges), each with the sliding-window route set of a given length. *)

type t = Line of int | Ring of int

val parse : max_size:int -> string -> (t, string) result
(** Accepts ["line:K"] for [1 <= K <= max_size] and ["ring:K"] for
    [3 <= K <= max_size]; surrounding blanks are ignored.  The error reads
    ["network \"...\": bad size"], ["network \"...\": size out of range
    [LO, HI]"] (["size must be at least LO"] when [max_size = max_int]) or
    ["unknown network \"...\" (line:K | ring:K)"]. *)

val to_string : t -> string
(** Inverse of {!parse}. *)

val build : d:int -> t -> Digraph.t * int array list
(** The graph and its routes: every window of [min d K] consecutive edges
    on a line, and from every start edge on a ring (at most [K - 1] long,
    so routes stay simple). *)
