(** Empirical stability classification for (network, policy, adversary)
    triples.

    A run is classified by the backlog trajectory: [Blowup] if a buffer ever
    exceeds the cap, [Growing] if the in-flight population at the end of the
    horizon is well above its midpoint value (sustained linear growth),
    [Stable] otherwise.  This is a heuristic — adversarial instability can
    have long quiet prefixes — so horizons should comfortably exceed the
    workload's natural time scale; the experiment tables report the raw
    numbers next to the verdict. *)

type verdict = Stable | Growing | Blowup

val verdict_to_string : verdict -> string

type report = {
  name : string;
  policy : string;
  rate : Aqt_util.Ratio.t;
  verdict : verdict;
  max_queue : int;
  mid_backlog : int;
  final_backlog : int;
  steps_run : int;
}

val classify :
  ?blowup:int ->
  ?route_table:Aqt_engine.Route_intern.t ->
  name:string ->
  graph:Aqt_graph.Digraph.t ->
  policy:Aqt_engine.Policy_type.t ->
  adversary:Aqt_adversary.Stock.t ->
  horizon:int ->
  unit ->
  report
(** Runs for [horizon] steps (default blowup cap 200_000 packets in one
    buffer) and classifies.  Runs on the engine fast path (packet recycling
    on); pass one [route_table] across the cells of a grid — all on the same
    graph — to validate and intern each distinct route once for the whole
    sweep. *)

(** {1 The scenarios behind [aqt_sim sweep]/[simulate] and [/sweep]/[/simulate]}

    Both build [Aqt_graph.Net_spec.build ~d network] and split an aggregate
    per-edge [rate] over its routes. *)

val grid_headers : string list

val grid :
  ?workers:int ->
  network:Aqt_graph.Net_spec.t ->
  d:int ->
  policies:Aqt_engine.Policy_type.t list ->
  rates:Aqt_util.Ratio.t list ->
  horizon:int ->
  unit ->
  string list list
(** One {!grid_headers} row per (policy, rate) cell, policy-major: {!classify}
    against a shared token bucket giving each route [rate / routes].  Cells
    shard over [workers] domains (default 1), each with its own route
    intern table. *)

type arrivals = Bursts  (** window-40 bursts *) | Bernoulli of int  (** seed *)

type run = {
  net : Aqt_engine.Network.t;
  adversary : Aqt_adversary.Stock.t;
  outcome : Aqt_engine.Sim.outcome;
  n_routes : int;
}

val simulate :
  ?capacity:Aqt_capacity.Model.t ->
  network:Aqt_graph.Net_spec.t ->
  d:int ->
  policy:Aqt_engine.Policy_type.t ->
  rate:Aqt_util.Ratio.t ->
  arrivals:arrivals ->
  horizon:int ->
  unit ->
  run
(** Runs [horizon] steps with [rate / min d routes] on each route. *)
