(** Deterministic token-bucket injection flows.

    A flow injects packets with a fixed route at an exact long-run rate
    [r = p/q]: the cumulative number of packets injected by the end of step
    [t] inside the flow's active window is [floor (r * elapsed)], optionally
    capped at [max_total].  This "as late as possible, never above the fluid
    line" discretization is how every adversary in the paper's constructions
    is realized: any single flow trivially satisfies the rate-r constraint on
    the edges it uses, and disjoint-window flows compose.

    Flows are pure descriptions; [count_at] is a function of the step number
    only, so drivers built from flows are replayable. *)

type t

val make :
  ?tag:string ->
  ?max_total:int ->
  route:int array ->
  rate:Aqt_util.Ratio.t ->
  start:int ->
  stop:int ->
  unit ->
  t
(** Active on steps [start .. stop] inclusive.  [rate] must be in (0, 1] —
    the model forbids more than one packet per step per flow only through
    the rate itself, so rates above 1 are rejected to keep flows honest.
    @raise Invalid_argument if [start > stop], the rate is out of range, or
    [max_total < 0]. *)

val route : t -> int array
val tag : t -> string
val start : t -> int
val stop : t -> int

val cumulative : t -> int -> int
(** Packets injected by the end of step [t] (0 before [start]). *)

val count_at : t -> int -> int
(** Packets injected exactly at step [t]. *)

val total : t -> int
(** Packets injected over the flow's lifetime. *)

val last_injection_step : t -> int option
(** The step of the flow's final injection, or [None] for an empty flow. *)

val injections_at : t list -> int -> Aqt_engine.Network.injection list
(** All injections from a flow list at step [t], in list order.  The list is
    built directly from one injection record per flow, shared by every
    packet the flow injects. *)
