(** Saving and loading injection logs.

    An injection log — the [(time, route)] pairs from
    [Network.injection_log], optionally preceded by initial-configuration
    routes — fully determines an adversary's behaviour (Lemma 3.3), so
    persisting one decouples recording a construction from replaying it
    under other policies or in other sessions.

    Format: plain text, one record per line.
    {v
    # comment
    meta <key> <value>
    init <edge> <edge> ...
    <time> <edge> <edge> ...
    v}
    Injection lines must be sorted by time, from step 1 on (time 0 is the
    initial configuration, written as [init] lines); [meta] and [init]
    lines come first.  Metadata is free-form; the CLI stores the gadget parameters
    ([n], [m]) there so `replay' can rebuild the graph. *)

type t = {
  meta : (string * string) list;
  initial : int array array;  (** Routes of the initial configuration. *)
  log : (int * int array) array;  (** Sorted by injection time. *)
}

val meta_value : t -> string -> string option

val save : string -> t -> unit
(** Writes the log to a file (truncates). *)

val load : string -> t
(** @raise Failure on malformed input (bad numbers, unsorted times, times
    below 1, empty routes). *)

val of_network : ?meta:(string * string) list -> Aqt_engine.Network.t -> t
(** Capture a run's initial routes and injection log (the network must have
    been created with [~log_injections:true]). *)

val to_string : t -> string
val of_string : string -> t
