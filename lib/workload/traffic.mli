(** Flow-level datacenter workloads compiled to admissible schedules.

    The layer between a fabric topology ({!Aqt_graph.Build.fabric}) and
    the engine: sender/receiver pairs drawn from a communication
    pattern, per-pair connections, flow sizes from an empirical CDF,
    per-flow ECMP route selection via {!Aqt_graph.Build.ecmp_index}, and
    arrivals shaped to a target utilisation of the busiest host access
    link — all compiled down to a concrete per-step injection schedule.

    The compiled schedule is {e admissible by construction} in the
    locally bursty sense of arXiv:2208.09522: each connection is paced
    as a floor-of-fluid token bucket at [conn_rate], so over any
    interval of [len] steps each edge [e] receives at most
    [rate * len + sigmas.(e)] packets, where [sigmas.(e)] counts the
    connections whose candidate ECMP routes can cross [e] and
    [rate = k_max * conn_rate].  [Aqt_adversary.Rate_check.check_local]
    re-verifies the bound on the actual injection log — the fabric check
    family's admissibility obligation.

    Everything is a deterministic function of [spec.seed]: the same
    spec compiles to the same schedule forever, on any machine. *)

type pattern =
  | Permutation  (** One uniform random cycle: every host sends to one
                     other host, no fixed points. *)
  | Incast of { senders : int }
      (** [senders] distinct hosts all send to one receiver (clamped to
          [n_hosts - 1]). *)
  | All_to_all  (** Every ordered host pair. *)
  | Hotspot of { hot_num : int; hot_den : int }
      (** Permutation background; each non-hot sender redirects to one
          hot receiver with probability [hot_num/hot_den]. *)

val pattern_to_string : pattern -> string
(** The canonical form: [permutation], [incast:N], [all-to-all] or
    [hotspot:N/D]. *)

val pattern_of_string : string -> (pattern, string) result
(** Inverse of {!pattern_to_string}; surrounding blanks are ignored.  A
    pattern {!compile} would reject (no incast sender, a hotspot fraction
    outside [[0, 1]]) is an [Error]. *)

type spec = {
  pattern : pattern;
  conns_per_pair : int;  (** Parallel connections per sender/receiver pair. *)
  utilisation : Aqt_util.Ratio.t;
      (** Target load on the busiest host access link; the per-connection
          rate is [utilisation / bottleneck], clamped to 1. *)
  flow_cdf : (int * int) list;
      (** [(cumulative weight, flow size in packets)], weights strictly
          increasing; the last weight is the total. *)
  horizon : int;  (** Steps of injection. *)
  seed : int;
}

val default_cdf : (int * int) list
(** Heavy-tailed web-search-style flow sizes (1 .. 96 packets). *)

val short_cdf : (int * int) list
(** 1-4 packet flows, for small conformance scenarios. *)

type flow = {
  pair : int;  (** Index into {!compiled.pairs}. *)
  conn : int;  (** Connection index within the pair. *)
  index : int;  (** Flow sequence number within the connection. *)
  size : int;  (** Packets. *)
  start : int;  (** Release step of the flow's first packet. *)
  route : int array;  (** The ECMP route every packet of the flow takes. *)
}

type compiled = {
  spec : spec;
  pairs : (int * int) array;  (** (sender, receiver) host indices. *)
  conn_rate : Aqt_util.Ratio.t;  (** Per-connection pacing rate. *)
  bottleneck : int;
      (** Connections sharing the busiest host access link — the
          utilisation normaliser. *)
  rate : Aqt_util.Ratio.t;  (** Declared aggregate rho (= k_max * conn_rate). *)
  sigmas : int array;  (** Declared per-edge burst budgets. *)
  flows : flow array;
  packets : int;  (** Total packets scheduled. *)
  schedule : int array list array;
      (** [schedule.(t)] holds the routes injected in step [t + 1]. *)
}

val compile :
  n_hosts:int ->
  m:int ->
  routes:(src:int -> dst:int -> int array array) ->
  spec ->
  compiled
(** Compile a workload over [n_hosts] hosts on a graph with [m] edges,
    with [routes] enumerating the equal-cost candidates per host pair
    (typically {!Aqt_graph.Build.fabric.routes}).
    @raise Invalid_argument on a malformed spec or [n_hosts < 2]. *)

val describe : compiled -> string
(** One human-readable line: pattern, pair/conn counts, rates, budgets. *)

val to_workload :
  name:string -> graph:Aqt_graph.Digraph.t -> compiled -> Workloads.t
(** The distinct routes the compiled flows use, as a reusable
    {!Workloads.t} scenario (validated like any other route family). *)
