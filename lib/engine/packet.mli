(** Packets in the adversarial queuing model.

    A packet carries a full route (array of edge ids) and the index [hop] of
    the next edge it must traverse.  The route array may be rewritten while
    the packet is in flight (the rerouting technique of Lemma 3.3); only the
    suffix strictly beyond the current next edge may change.

    Time fields follow the model of Section 2: a packet enters a buffer in the
    second substep of step [t] ([buffered_at = t]) and can be forwarded in the
    first substep of step [t+1] at the earliest.

    Sharing rules of the fast path: [route] is an interned canonical array
    ({!Route_intern}) shared with every packet whose route has the same
    contents — never mutate its elements.  Route rewrites go through
    [Network.reroute], which installs the canonical array of the rewritten
    route and records it in the network's injection log under the packet's
    [id].  Whether a packet was placed initially, injected by the adversary
    or sent as exogenous traffic is known to that log, not to the record.
    When the owning network recycles packets
    ([Network.create ~recycle:true]), a record may be reinitialised for a
    new packet after absorption, so do not hold on to absorbed packets —
    every field is mutable only to make that in-place reinitialisation
    possible. *)

type t = {
  mutable id : int;  (** Unique per network; grows with injection time. *)
  mutable injected_at : int;  (** 0 for the initial configuration. *)
  mutable tag : string;
      (** Adversary annotation ("old", "short", ...); traces only. *)
  mutable route : int array;
  mutable hop : int;  (** Index into [route] of the next edge; [= length route]
                          once absorbed. *)
  mutable buffered_at : int;
  mutable reroutes : int;  (** Number of times the route suffix was rewritten. *)
}

val current_edge : t -> int
(** The edge the packet is waiting for.
    @raise Invalid_argument if absorbed. *)

val remaining : t -> int
(** Edges still to traverse, including the next one; 0 once absorbed. *)

val remaining_equals : t -> int array -> bool
(** [remaining_equals p expected]: the edges still to traverse, the next one
    included, are exactly [expected].  Compares in place, allocating
    nothing. *)

val segment_equals : int array -> int -> int array -> bool
(** [segment_equals route off expected]: [route] holds [expected] starting
    at index [off].  Allocates nothing. *)

val traversed : t -> int
(** Edges already crossed (= distance from source). *)

val is_absorbed : t -> bool

val pp : Format.formatter -> t -> unit
