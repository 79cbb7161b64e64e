(** Stock network topologies for experiments.

    Each builder returns the graph plus the handles an experiment needs
    (node/edge arrays in construction order).  These are the substrate
    topologies for the stability experiments (Section 4 of the paper) and for
    the baseline comparisons; the paper's own gadget graphs live in
    [Aqt.Gadget]. *)

type line = { graph : Digraph.t; nodes : int array; edges : int array }

val line : int -> line
(** [line k] is a directed path with [k] edges [v0 -> v1 -> ... -> vk]. *)

type ring = { graph : Digraph.t; nodes : int array; edges : int array }

val ring : int -> ring
(** [ring k] is a directed cycle with [k >= 2] nodes and [k] edges;
    [edges.(i)] goes from node [i] to node [(i+1) mod k]. *)

type parallel = {
  graph : Digraph.t;
  source : int;
  sink : int;
  paths : int array array;  (** [paths.(i)] is the edge route of branch i. *)
}

val parallel_paths : branches:int -> hops:int -> parallel
(** [branches] edge-disjoint directed paths of [hops] edges each, sharing only
    the endpoints.  Requires [branches >= 1] and [hops >= 1]; with [hops = 1]
    this is a multigraph of parallel edges. *)

type grid = {
  graph : Digraph.t;
  rows : int;
  cols : int;
  node_at : int -> int -> int;
  right_of : int -> int -> int;
      (** Edge id of [(r,c) -> (r,c+1)]; requires [c + 1 < cols]. *)
  down_of : int -> int -> int;
      (** Edge id of [(r,c) -> (r+1,c)]; requires [r + 1 < rows]. *)
}

val grid : rows:int -> cols:int -> grid
(** Directed grid: edges go right and down.  O(E) construction with
    arithmetic (not tabulated) node and edge handles, so million-edge grids
    build without per-element allocation. *)

type torus = {
  graph : Digraph.t;
  rows : int;
  cols : int;
  node_at : int -> int -> int;
  right_of : int -> int -> int;  (** Edge id of [(r,c) -> (r,(c+1) mod cols)]. *)
  down_of : int -> int -> int;  (** Edge id of [(r,c) -> ((r+1) mod rows,c)]. *)
}

val torus : rows:int -> cols:int -> torus
(** Directed torus ([rows, cols >= 2]): the grid with wraparound, every node
    having exactly one right and one down edge — [2 * rows * cols] edges.
    Same O(E) construction discipline as {!grid}. *)

type tree = { graph : Digraph.t; root : int; leaves : int array }

val in_tree : depth:int -> tree
(** Complete binary in-tree: every edge points toward the root; [2^depth]
    leaves.  Used for the NTG low-rate instability baseline. *)

(** {1 Datacenter fabrics}

    Spine-leaf and 3-tier k-ary fat-tree topologies for the fabric
    scenario pack ([Aqt_fabric]).  Every physical link is a pair of
    directed edges (one per direction); hosts are the route endpoints and
    switches are transit-only.  Both builders expose deterministic
    ECMP-style shortest-path route enumeration over {e host indices}
    ([0 .. n_hosts-1], the index into [hosts]) and work with
    {!ecmp_index} / {!ecmp_route} for hash-based per-flow selection. *)

type fabric = {
  graph : Digraph.t;
  hosts : int array;  (** Host node ids, by host index. *)
  switches : int array;  (** All non-host node ids. *)
  routes : src:int -> dst:int -> int array array;
      (** All equal-cost shortest routes (edge-id arrays) between two
          distinct host {e indices}, in a fixed deterministic order.
          @raise Invalid_argument on out-of-range or equal indices. *)
  ecmp_degree : src:int -> dst:int -> int;
      (** Closed-form [Array.length (routes ~src ~dst)] without building
          the routes. *)
}

val spine_leaf : spines:int -> leaves:int -> hosts_per_leaf:int -> fabric
(** Two-tier Clos: every leaf links to every spine, [hosts_per_leaf]
    hosts per leaf.  [spines + leaves + leaves*hosts_per_leaf] nodes and
    [2*spines*leaves + 2*leaves*hosts_per_leaf] directed edges.  Host
    pairs under distinct leaves have exactly [spines] equal-cost 4-hop
    routes; under the same leaf, one 2-hop route.
    @raise Invalid_argument unless all three parameters are >= 1. *)

val fat_tree : k:int -> fabric
(** The canonical 3-tier k-ary fat-tree (k even, >= 2): [k] pods of
    [k/2] edge and [k/2] aggregation switches, [(k/2)^2] cores, [k^3/4]
    hosts; [3*k^3/2] directed edges.  Equal-cost shortest routes per
    host pair: 1 under the same edge switch (2 hops), [k/2] within a pod
    (4 hops), [(k/2)^2] across pods (6 hops).
    @raise Invalid_argument if [k] is odd or < 2. *)

val ecmp_index :
  seed:int -> src:int -> dst:int -> flow:int -> int -> int
(** [ecmp_index ~seed ~src ~dst ~flow n] deterministically hashes the
    tuple into [0 .. n-1] — the per-flow route selector (same tuple,
    same choice, on any platform), like a switch hashing a 5-tuple.
    @raise Invalid_argument if [n < 1]. *)

val ecmp_route :
  fabric -> seed:int -> src:int -> dst:int -> flow:int -> int array
(** The route {!ecmp_index} picks among [routes ~src ~dst]. *)

val random_dag :
  prng:Aqt_util.Prng.t -> nodes:int -> edge_prob_num:int -> edge_prob_den:int ->
  Digraph.t
(** Random DAG on [nodes] nodes: each forward pair (i,j), i<j, gets an edge
    with probability [edge_prob_num/edge_prob_den].  O(n²). *)
