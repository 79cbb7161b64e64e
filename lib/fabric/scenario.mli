(** Datacenter-fabric scenarios: a topology, a flow-level workload, a
    queueing policy and a buffer model, driven through either engine
    backend and checked for admissibility on the way out.

    This is the top of the fabric stack: {!Aqt_graph.Build.spine_leaf} /
    {!Aqt_graph.Build.fat_tree} supply the topology and ECMP route sets,
    {!Aqt_workload.Traffic} compiles the flow-level workload into an
    admissible per-step schedule, and [run] replays that schedule through
    either engine behind {!Aqt_engine.Backend}.  The two engines produce
    identical trajectories; the fabric conformance family ([aqt_sim check
    --family fabric]) holds them to that. *)

type topo =
  | Spine_leaf of { spines : int; leaves : int; hosts_per_leaf : int }
  | Fat_tree of { k : int }

val topo_to_string : topo -> string
(** The canonical form: [fat-tree:K] or [spine-leaf:S,L,H]. *)

val topo_of_string : string -> (topo, string) result
(** Inverse of {!topo_to_string}; surrounding blanks are ignored.  A
    topology the generator rejects (odd or tiny fat-tree arity, an empty
    spine-leaf tier) is an [Error] carrying the generator's message. *)

val build_topo : topo -> Aqt_graph.Build.fabric

type t = {
  name : string;
  topo : topo;
  pattern : Aqt_workload.Traffic.pattern;
  conns_per_pair : int;
  utilisation : Aqt_util.Ratio.t;
  flow_cdf : (int * int) list;
  policy : Aqt_engine.Policy_type.t;
  capacity : Aqt_capacity.Model.t;
  horizon : int;  (** Steps of injection. *)
  drain : int;  (** Extra injection-free steps before reading counters. *)
  seed : int;
}

val make :
  ?name:string ->
  ?conns_per_pair:int ->
  ?flow_cdf:(int * int) list ->
  ?policy:Aqt_engine.Policy_type.t ->
  ?capacity:Aqt_capacity.Model.t ->
  ?drain:int ->
  ?seed:int ->
  topo:topo ->
  pattern:Aqt_workload.Traffic.pattern ->
  utilisation:Aqt_util.Ratio.t ->
  horizon:int ->
  unit ->
  t
(** Defaults: FIFO, unbounded buffers, one connection per pair, the
    heavy-tailed {!Aqt_workload.Traffic.default_cdf}, 200 drain steps,
    seed 1, [name] derived from the topology. *)

val compile : t -> Aqt_graph.Build.fabric * Aqt_workload.Traffic.compiled
(** Build the topology and compile the workload, without running. *)

type outcome = {
  scenario : t;
  backend : string;  (** {!Aqt_engine.Backend.kind} of the engine that ran. *)
  nodes : int;
  edges : int;
  n_hosts : int;
  n_pairs : int;
  n_flows : int;
  injected : int;
  absorbed : int;
  dropped : int;
  in_flight : int;  (** Still queued after the drain. *)
  max_queue : int;  (** Peak single-queue length over the run. *)
  peak_occupancy : int;  (** Peak total buffered packets (shared-buffer). *)
  max_dwell : int;
  latency_mean : float;
  legal : bool;
      (** The injection log passed
          {!Aqt_adversary.Rate_check.check_local} against the compiled
          [(rate, sigmas)] budget. *)
}

val run : ?backend:[ `Record | `Soa of int ] -> t -> outcome
(** Replay the compiled schedule for [horizon] steps plus [drain]
    injection-free steps on the engine {!Aqt_engine.Backend.create} selects
    (default [`Record]).  Deterministic: same scenario, same outcome on
    either engine and any domain count. *)

val catalog : unit -> t list
(** Canned scenarios for [aqt_sim fabric --list]. *)

val find_catalog : string -> t option
