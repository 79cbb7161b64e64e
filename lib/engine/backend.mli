(** Engine selection: the record engine or the struct-of-arrays core behind
    one stepping/observation surface.

    [create ~backend:(`Soa n)] gives the cache-linear {!Soa} engine with [n]
    edge partitions (domains); [`Record] (the default) gives {!Network}.
    Both produce identical trajectories — {!Aqt_check.Diff} asserts it —
    so callers choose purely on performance.  A record engine built by
    hand (with a tracer, say) joins the same surface as [Record net]. *)

type injection = Network.injection = { route : int array; tag : string }

type t = Record of Network.t | Soa of Soa.t

val create :
  ?log_injections:bool ->
  ?validate_routes:bool ->
  ?tie_order:Network.tie_order ->
  ?capacity:Aqt_capacity.Model.t ->
  ?backend:[ `Record | `Soa of int ] ->
  graph:Aqt_graph.Digraph.t ->
  policy:Policy_type.t ->
  unit ->
  t
(** The record engine is created with packet recycling: this surface never
    hands out a {!Packet.t}, so no caller can hold a recycled record. *)

val kind : t -> string
(** ["record"] or ["soa-d<n>"] — for labelling result rows and differ
    arms. *)

val place_initial : t -> ?tag:string -> int array -> int
(** Returns the packet id. *)

val step : t -> injection list -> unit

val reroute_where :
  t -> (id:int -> edge:int -> remaining:int -> bool) -> int array -> unit
(** {!Soa.reroute_where} on either engine: every buffered packet selected by
    the predicate (packet id, the edge it is buffered on, remaining hops)
    keeps its traversed prefix and current edge, followed by the suffix.
    On the record engine each selected packet goes through
    {!Network.reroute}. *)

val shutdown : t -> unit
(** Joins any pooled worker domains; no-op for [`Record] and single-domain
    [`Soa].  Required before dropping a parallel instance — the runtime
    caps live domains. *)

(** {1 Observation}

    Accessors mirror {!Network}'s and agree value-for-value across the two
    engines on identical runs. *)

type view = Soa.view = {
  v_id : int;
  v_injected_at : int;
  v_hop : int;
  v_buffered_at : int;
  v_route : int array;  (** Never mutated in place by either engine. *)
}
(** A buffered packet, as both engines report it. *)

val view_of_packet : Packet.t -> view
(** Shares the packet's route array: routes are rewritten by installing a
    fresh array, never in place. *)

val graph : t -> Aqt_graph.Digraph.t

val buffer_len : t -> int -> int

val buffer_packets : t -> int -> view list
(** Contents of the buffer of an edge in service order (head first). *)

val in_flight : t -> int
val absorbed : t -> int
val injected_count : t -> int
val initial_count : t -> int
val dropped : t -> int
val displaced : t -> int
val dropped_on_edge : t -> int -> int
val occupancy : t -> int
val peak_occupancy : t -> int
val max_queue_ever : t -> int
val max_queue_of_edge : t -> int -> int
val sent_on_edge : t -> int -> int
val max_dwell : t -> int
val max_pending_dwell : t -> int
val delivered_latency_max : t -> int
val delivered_latency_mean : t -> float
val reroute_count : t -> int
val last_injection_on : t -> int -> int

val injection_log : t -> (int * int array) array
(** @raise Invalid_argument without [log_injections]. *)
