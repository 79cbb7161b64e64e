(** CSV emission for experiment results.

    Every experiment in the benchmark harness can mirror its table to a CSV
    file so results can be post-processed outside the repository.  Quoting
    follows RFC 4180 (fields containing commas, quotes or newlines are quoted,
    embedded quotes doubled). *)

type t

val quote : string -> string
(** RFC-4180 escaping of a single field: returned verbatim unless it
    contains a comma, double quote, CR or LF, in which case it is wrapped
    in double quotes with embedded quotes doubled.  Exposed so other
    emitters (e.g. campaign summaries) quote identically. *)

val to_buffer : Buffer.t -> t
val write_row : t -> string list -> unit
val write_rows : t -> string list list -> unit

val with_file : string -> headers:string list -> (t -> unit) -> unit
(** Creates/truncates [file], writes the header row, runs the body, closes. *)
