(** Event-level tracing of a network execution.

    A tracer is a callback the network invokes on every packet event; the
    {!t} collector stores them for offline analysis (per-packet histories,
    event counts, textual dumps).  Tracing is off unless a tracer is passed
    to [Network.create], and costs nothing when off. *)

type event =
  | Injected of { t : int; packet : int; edge : int; route_len : int; initial : bool }
      (** Packet entered the network at the tail of [edge]. *)
  | Forwarded of { t : int; packet : int; edge : int; dwell : int }
      (** Packet crossed [edge] in the first substep of step [t] after
          waiting [dwell] steps in its buffer. *)
  | Absorbed of { t : int; packet : int; latency : int }
  | Rerouted of { t : int; packet : int; route_len : int }
      (** Route suffix rewritten; [route_len] is the new full length. *)
  | Dropped of { t : int; packet : int; edge : int; displaced : bool }
      (** Packet lost at the buffer of [edge] under a finite capacity model:
          an arrival that overflowed ([displaced = false]) or a buffered
          head packet pushed out by a drop-head arrival ([displaced =
          true]).  Always follows the victim's last Injected/Forwarded
          event. *)

val pp_event : Format.formatter -> event -> unit

(** {1 Collector} *)

type t

val create : unit -> t
val handler : t -> event -> unit
(** The callback to pass as [Network.create ~tracer:(Trace.handler tr)]. *)

val length : t -> int
val events : t -> event array
val packet_history : t -> int -> event list
(** All events of one packet, in order. *)

val count_forwarded : t -> int
val count_absorbed : t -> int
val count_injected : t -> int
val count_rerouted : t -> int
val count_dropped : t -> int

val hop_times : t -> int -> (int * int) list
(** [(time, edge)] pairs of a packet's forwards — its trajectory. *)
