module Prng = Aqt_util.Prng
module Ratio = Aqt_util.Ratio
module Digraph = Aqt_graph.Digraph
module Build = Aqt_graph.Build
module Network = Aqt_engine.Network
module Sim = Aqt_engine.Sim
module Policies = Aqt_policy.Policies
module Stock = Aqt_adversary.Stock
module Flow = Aqt_adversary.Flow
module Capacity = Aqt_capacity.Model
module Traffic = Aqt_workload.Traffic
module Scenario = Aqt_fabric.Scenario

type obligation =
  | Rate_ok of Ratio.t
  | Windowed_ok of { w : int; rate : Ratio.t }
  | Leaky_ok of { b : int; rate : Ratio.t }
  | Local_ok of { rate : Ratio.t; sigmas : int array }
  | Dwell_bound of { w : int; rate : Ratio.t; d : int }
  | Routes_valid
  | Drop_accounting

type feedback = { pool : int array array; hot : int }

type scenario = {
  seed : int;
  label : string;
  graph : Digraph.t;
  policy : Aqt_engine.Policy_type.t;
  tie_order : Network.tie_order;
  initial : int array list;
  schedule : Network.injection list array;
  reroutes : bool;
  capacity : Capacity.t;
  feedback : feedback option;
  obligations : obligation list;
}

let horizon s = Array.length s.schedule

(* The [random] policy consumes a mutable PRNG per key evaluation, so two
   arms would drift; every other named policy is a pure key function. *)
let policies = Array.of_list Policies.all_deterministic

let pick_policy prng = Prng.pick prng policies

let pick_tie prng =
  if Prng.bool prng then Network.Transit_first else Network.Injection_first

(* Replay a stock adversary's injection function into a concrete per-step
   schedule, so all arms see byte-identical injections.  The network
   argument is unused by every stock driver (they are pure in [t]); a
   throwaway instance satisfies the type. *)
let materialize ~graph driver ~horizon =
  let dummy = Network.create ~graph ~policy:Policies.fifo () in
  Array.init horizon (fun i -> driver.Sim.injections_at dummy (i + 1))

(* Routes over a directed ring: arcs of up to [k - 1] edges (longer would
   repeat an edge).  Overlap freely. *)
let ring_arc prng (r : Build.ring) ~max_len =
  let k = Array.length r.edges in
  let start = Prng.int prng k in
  let len = 1 + Prng.int prng (min max_len (k - 1)) in
  Array.init len (fun j -> r.edges.((start + j) mod k))

let line_segment prng (l : Build.line) =
  let k = Array.length l.edges in
  let start = Prng.int prng k in
  let len = 1 + Prng.int prng (k - start) in
  Array.sub l.edges start len

(* Edge-disjoint routes: the branches of a parallel-paths graph. *)
let disjoint_pool prng =
  let branches = 2 + Prng.int prng 3 and hops = 1 + Prng.int prng 4 in
  let p = Build.parallel_paths ~branches ~hops in
  (p.Build.graph, Array.to_list p.Build.paths, hops)

let overlapping_pool prng =
  if Prng.bool prng then begin
    let k = 3 + Prng.int prng 6 in
    let r = Build.ring k in
    let n = 2 + Prng.int prng 4 in
    ( r.Build.graph,
      List.init n (fun _ -> ring_arc prng r ~max_len:(k - 1)),
      Printf.sprintf "ring(%d)" k )
  end
  else begin
    let k = 2 + Prng.int prng 7 in
    let l = Build.line k in
    let n = 2 + Prng.int prng 4 in
    ( l.Build.graph,
      List.init n (fun _ -> line_segment prng l),
      Printf.sprintf "line(%d)" k )
  end

let free prng seed =
  let graph, pool, topo = overlapping_pool prng in
  let pool = Array.of_list pool in
  let policy = pick_policy prng in
  let tie_order = pick_tie prng in
  let reroutes = Prng.bool prng in
  let n_initial = Prng.int prng 5 in
  let initial = List.init n_initial (fun _ -> Prng.pick prng pool) in
  let horizon = 20 + Prng.int prng 41 in
  let schedule =
    Array.init horizon (fun _ ->
        List.init (Prng.int prng 4) (fun _ : Network.injection ->
            { route = Prng.pick prng pool; tag = "free" }))
  in
  {
    seed;
    label =
      Printf.sprintf "free %s %s %s%s" topo policy.name
        (match tie_order with
        | Network.Transit_first -> "transit-first"
        | Network.Injection_first -> "injection-first")
        (if reroutes then " +reroutes" else "");
    graph;
    policy;
    tie_order;
    initial;
    schedule;
    reroutes;
    capacity = Capacity.unbounded;
    feedback = None;
    obligations = [];
  }

let shared_bucket prng seed =
  let graph, pool, topo = overlapping_pool prng in
  let policy = pick_policy prng in
  let tie_order = pick_tie prng in
  let den = 2 + Prng.int prng 6 in
  let rate = Ratio.make (1 + Prng.int prng den) den in
  let horizon = 30 + Prng.int prng 51 in
  let adv = Stock.shared_token_bucket ~rate ~routes:pool ~horizon () in
  {
    seed;
    label =
      Printf.sprintf "shared-bucket %s %s rate=%s" topo policy.name
        (Ratio.to_string rate);
    graph;
    policy;
    tie_order;
    initial = [];
    schedule = materialize ~graph adv.Stock.driver ~horizon;
    reroutes = false;
    capacity = Capacity.unbounded;
    feedback = None;
    obligations = [ Rate_ok rate ];
  }

let windowed prng seed =
  let graph, pool, d = disjoint_pool prng in
  let policy = pick_policy prng in
  let tie_order = pick_tie prng in
  (* Pitch the rate exactly at a theorem hypothesis: 1/(d+1) puts every
     greedy policy under Theorem 4.1, 1/d puts time-priority policies under
     Theorem 4.3 (for the rest the dwell obligation verifies vacuously). *)
  let rate =
    if Prng.bool prng then Ratio.make 1 (d + 1) else Ratio.make 1 d
  in
  let w = Ratio.den rate * (1 + Prng.int prng 3) in
  let packed = Prng.bool prng in
  let horizon = w * (3 + Prng.int prng 4) in
  let adv = Stock.windowed_burst ~packed ~w ~rate ~routes:pool ~horizon () in
  {
    seed;
    label =
      Printf.sprintf "windowed parallel(d=%d) %s w=%d rate=%s%s" d policy.name
        w (Ratio.to_string rate)
        (if packed then " packed" else "");
    graph;
    policy;
    tie_order;
    initial = [];
    schedule = materialize ~graph adv.Stock.driver ~horizon;
    reroutes = false;
    capacity = Capacity.unbounded;
    feedback = None;
    obligations = [ Windowed_ok { w; rate }; Dwell_bound { w; rate; d } ];
  }

let leaky prng seed =
  let graph, pool, d = disjoint_pool prng in
  let policy = pick_policy prng in
  let tie_order = pick_tie prng in
  (* b >= 1: a lone token-bucket flow has burstiness 1 relative to the
     real-valued bound (count <= r*len + b), so b = 0 would be violated by
     the adversary's own release pattern, not by an engine bug. *)
  let b = 1 + Prng.int prng 3 in
  let den = 2 + Prng.int prng 5 in
  let rate = Ratio.make (1 + Prng.int prng (den - 1)) den in
  let horizon = 30 + Prng.int prng 31 in
  let adv = Stock.leaky_bucket ~b ~rate ~routes:pool ~horizon () in
  {
    seed;
    label =
      Printf.sprintf "leaky parallel(d=%d) %s b=%d rate=%s" d policy.name b
        (Ratio.to_string rate);
    graph;
    policy;
    tie_order;
    initial = [];
    schedule = materialize ~graph adv.Stock.driver ~horizon;
    reroutes = false;
    capacity = Capacity.unbounded;
    feedback = None;
    obligations = [ Leaky_ok { b; rate } ];
  }

(* The capacity regime: dense free-style schedules against small finite
   buffers (all three drop disciplines) and link speedups 1..3, so drops,
   displacements and multi-sends all actually happen.  Unlike the other
   families the point is not an adversary class but the admission logic
   itself: every engine drop decision must match the oracle's. *)
let capacity_regime prng seed =
  let graph, pool, topo = overlapping_pool prng in
  let pool = Array.of_list pool in
  let policy = pick_policy prng in
  let tie_order = pick_tie prng in
  let reroutes = Prng.bool prng in
  let speedup = 1 + Prng.int prng 3 in
  let m = Digraph.n_edges graph in
  let capacity =
    match Prng.int prng 4 with
    | 0 ->
        Capacity.make ~speedup
          (Capacity.Uniform { cap = Prng.int prng 3; policy = Capacity.Drop_tail })
    | 1 ->
        Capacity.make ~speedup
          (Capacity.Uniform { cap = 1 + Prng.int prng 3; policy = Capacity.Drop_head })
    | 2 ->
        Capacity.make ~speedup
          (Capacity.Per_edge
             {
               caps = Array.init m (fun _ -> Prng.int prng 4);
               policy = (if Prng.bool prng then Capacity.Drop_head else Capacity.Drop_tail);
             })
    | _ ->
        Capacity.make ~speedup
          (Capacity.Shared
             {
               total = 1 + Prng.int prng 8;
               alpha_num = 1 + Prng.int prng 2;
               alpha_den = 1 + Prng.int prng 2;
             })
  in
  let n_initial = Prng.int prng 4 in
  let initial = List.init n_initial (fun _ -> Prng.pick prng pool) in
  let horizon = 20 + Prng.int prng 31 in
  let schedule =
    Array.init horizon (fun _ ->
        List.init (Prng.int prng 5) (fun _ : Network.injection ->
            { route = Prng.pick prng pool; tag = "cap" }))
  in
  {
    seed;
    label =
      Printf.sprintf "capacity %s %s %s%s" topo policy.name
        (Capacity.to_string capacity)
        (if reroutes then " +reroutes" else "");
    graph;
    policy;
    tie_order;
    initial;
    schedule;
    reroutes;
    capacity;
    feedback = None;
    obligations = [];
  }

(* Locally bursty (arXiv:2208.09522): one token-bucket flow per route with
   a small one-off burst, per-edge budgets derived by [Local_burst.budgets]
   so the scenario provably satisfies its own (rho, sigma_e) condition. *)
let local_burst prng seed =
  let graph, pool, topo = overlapping_pool prng in
  let policy = pick_policy prng in
  let tie_order = pick_tie prng in
  let m = Digraph.n_edges graph in
  let flows = List.map (fun route -> (route, Prng.int prng 3)) pool in
  (* rho = k_max * flow_rate must stay <= 1 for the per-flow rate to be a
     legal Flow rate and the aggregate to be subcritical; k_max <= |pool|,
     so a denominator of k_max * (2..5) keeps rho in (0, 1/2]. *)
  let k = Array.make m 0 in
  List.iter
    (fun (route, _) -> Array.iter (fun e -> k.(e) <- k.(e) + 1) route)
    flows;
  let k_max = Array.fold_left max 1 k in
  let den = k_max * (2 + Prng.int prng 4) in
  let flow_rate = Ratio.make 1 den in
  let horizon = 30 + Prng.int prng 51 in
  let adv =
    Aqt_adversary.Local_burst.make ~m ~flow_rate ~flows ~horizon ()
  in
  {
    seed;
    label =
      Printf.sprintf "local-burst %s %s rho=%s flows=%d" topo policy.name
        (Ratio.to_string adv.Aqt_adversary.Local_burst.rate)
        (List.length flows);
    graph;
    policy;
    tie_order;
    initial = [];
    schedule = materialize ~graph adv.Aqt_adversary.Local_burst.driver ~horizon;
    reroutes = false;
    capacity = Capacity.unbounded;
    feedback = None;
    obligations =
      [
        Local_ok
          {
            rate = adv.Aqt_adversary.Local_burst.rate;
            sigmas = adv.Aqt_adversary.Local_burst.sigmas;
          };
      ];
  }

(* Feedback-driven routing (arXiv:1812.11113): the schedule stores only the
   release counts (placeholder routes); the differ re-derives the route
   choice and the truncation pass per arm from that arm's own observed
   queue vector, so a divergence in observed state becomes a divergence in
   behaviour the buffer compare catches. *)
let feedback_routing prng seed =
  let graph, pool, topo = overlapping_pool prng in
  let pool = Array.of_list pool in
  let policy = pick_policy prng in
  let tie_order = pick_tie prng in
  let den = 2 + Prng.int prng 6 in
  let rate = Ratio.make (1 + Prng.int prng den) den in
  let hot = 1 + Prng.int prng 4 in
  let horizon = 30 + Prng.int prng 51 in
  let counter = Flow.make ~route:pool.(0) ~rate ~start:1 ~stop:horizon () in
  let schedule =
    Array.init horizon (fun i ->
        let n =
          Flow.cumulative counter (i + 1) - Flow.cumulative counter i
        in
        List.init n (fun _ : Network.injection ->
            { route = pool.(0); tag = "feedback" }))
  in
  let n_initial = Prng.int prng 4 in
  let initial =
    List.init n_initial (fun _ -> pool.(Prng.int prng (Array.length pool)))
  in
  {
    seed;
    label =
      Printf.sprintf "feedback %s %s rate=%s hot=%d" topo policy.name
        (Ratio.to_string rate) hot;
    graph;
    policy;
    tie_order;
    initial;
    schedule;
    reroutes = true;
    capacity = Capacity.unbounded;
    feedback = Some { pool; hot };
    obligations = [ Rate_ok rate ];
  }

(* Datacenter fabric: a tiny spine-leaf or fat-tree with ECMP route
   sets, a flow-level Traffic workload compiled to an admissible
   per-step schedule, under unbounded or small shared-DT buffers.  The
   obligations assert the three fabric-specific contracts: the compiled
   (rho, sigma_e) budget really holds on the injection log, every
   injected route is a valid simple path of the fabric, and the drop
   counters balance. *)
let fabric prng seed =
  let topo =
    if Prng.bool prng then begin
      let spines = 1 + Prng.int prng 2
      and leaves = 2 + Prng.int prng 2
      and hosts_per_leaf = 1 + Prng.int prng 2 in
      Scenario.Spine_leaf { spines; leaves; hosts_per_leaf }
    end
    else Scenario.Fat_tree { k = 2 }
  in
  let policy = pick_policy prng in
  let tie_order = pick_tie prng in
  let pattern =
    match Prng.int prng 4 with
    | 0 -> Traffic.Permutation
    | 1 -> Traffic.Incast { senders = 1 + Prng.int prng 3 }
    | 2 -> Traffic.All_to_all
    | _ -> Traffic.Hotspot { hot_num = 1 + Prng.int prng 2; hot_den = 2 }
  in
  let horizon = 20 + Prng.int prng 41 in
  let utilisation = Ratio.make (1 + Prng.int prng 4) 4 in
  let conns_per_pair = 1 + Prng.int prng 2 in
  let capacity =
    if Prng.bool prng then Capacity.unbounded
    else
      Capacity.shared
        ~alpha_num:(1 + Prng.int prng 2)
        ~alpha_den:(1 + Prng.int prng 2)
        (4 + Prng.int prng 29)
  in
  let fab, compiled =
    Scenario.compile
      (Scenario.make ~conns_per_pair ~flow_cdf:Traffic.short_cdf ~policy
         ~capacity ~seed ~topo ~pattern ~utilisation ~horizon ())
  in
  let schedule =
    Array.map
      (List.map (fun route : Network.injection -> { route; tag = "fab" }))
      compiled.Traffic.schedule
  in
  {
    seed;
    label =
      Printf.sprintf "fabric %s %s %s %s"
        (Scenario.topo_to_string topo)
        (Traffic.pattern_to_string pattern)
        policy.name
        (Capacity.to_string capacity);
    graph = fab.Build.graph;
    policy;
    tie_order;
    initial = [];
    schedule;
    reroutes = false;
    capacity;
    feedback = None;
    obligations =
      [
        Local_ok
          { rate = compiled.Traffic.rate; sigmas = compiled.Traffic.sigmas };
        Routes_valid;
        Drop_accounting;
      ];
  }

type family =
  | Free
  | Shared_bucket
  | Windowed
  | Leaky
  | Capacity_regime
  | Local_bursty
  | Feedback_routing
  | Fabric

let all_families =
  [
    Free;
    Shared_bucket;
    Windowed;
    Leaky;
    Capacity_regime;
    Local_bursty;
    Feedback_routing;
    Fabric;
  ]

let family_name = function
  | Free -> "free"
  | Shared_bucket -> "shared-bucket"
  | Windowed -> "windowed"
  | Leaky -> "leaky"
  | Capacity_regime -> "capacity"
  | Local_bursty -> "local"
  | Feedback_routing -> "feedback"
  | Fabric -> "fabric"

let family_of_string = function
  | "free" -> Some Free
  | "shared-bucket" | "shared" -> Some Shared_bucket
  | "windowed" -> Some Windowed
  | "leaky" -> Some Leaky
  | "capacity" -> Some Capacity_regime
  | "local" | "local-burst" -> Some Local_bursty
  | "feedback" -> Some Feedback_routing
  | "fabric" | "dc" -> Some Fabric
  | _ -> None

let build = function
  | Free -> free
  | Shared_bucket -> shared_bucket
  | Windowed -> windowed
  | Leaky -> leaky
  | Capacity_regime -> capacity_regime
  | Local_bursty -> local_burst
  | Feedback_routing -> feedback_routing
  | Fabric -> fabric

let generate ?(families = all_families) seed =
  if families = [] then invalid_arg "Gen.generate: empty family list";
  let prng = Prng.create seed in
  let fams = Array.of_list families in
  let fam = fams.(Prng.int prng (Array.length fams)) in
  build fam prng seed

let pp_obligation fmt = function
  | Rate_ok rate -> Format.fprintf fmt "rate-%a all-intervals" Ratio.pp rate
  | Windowed_ok { w; rate } ->
      Format.fprintf fmt "(w=%d, r=%a) windowed (Def 2.1)" w Ratio.pp rate
  | Leaky_ok { b; rate } ->
      Format.fprintf fmt "leaky-bucket b=%d r=%a" b Ratio.pp rate
  | Local_ok { rate; sigmas } ->
      Format.fprintf fmt "locally bursty rho=%a sigma_max=%d" Ratio.pp rate
        (Array.fold_left max 0 sigmas)
  | Dwell_bound { w; rate; d } ->
      Format.fprintf fmt "dwell bound (w=%d, r=%a, d=%d, Thm 4.1/4.3)" w
        Ratio.pp rate d
  | Routes_valid -> Format.fprintf fmt "injected routes are simple paths"
  | Drop_accounting ->
      Format.fprintf fmt "drop counters balance (per-edge, displaced)"

let pp fmt s =
  Format.fprintf fmt "@[<v>seed %d: %s@," s.seed s.label;
  Format.fprintf fmt "graph: %d nodes, %d edges; horizon %d@,"
    (Digraph.n_nodes s.graph) (Digraph.n_edges s.graph) (horizon s);
  if not (Capacity.is_trivial s.capacity) then
    Format.fprintf fmt "capacity: %s@," (Capacity.to_string s.capacity);
  (match s.feedback with
  | None -> ()
  | Some fb ->
      Format.fprintf fmt "feedback: pool of %d routes, hot=%d@,"
        (Array.length fb.pool) fb.hot);
  if s.initial <> [] then begin
    Format.fprintf fmt "initial:@,";
    List.iter
      (fun r -> Format.fprintf fmt "  %a@," (Digraph.pp_route s.graph) r)
      s.initial
  end;
  Array.iteri
    (fun i injs ->
      if injs <> [] then begin
        Format.fprintf fmt "step %d:@," (i + 1);
        List.iter
          (fun (inj : Network.injection) ->
            Format.fprintf fmt "  %a@," (Digraph.pp_route s.graph) inj.route)
          injs
      end)
    s.schedule;
  List.iter
    (fun o -> Format.fprintf fmt "obligation: %a@," pp_obligation o)
    s.obligations;
  Format.fprintf fmt "@]"
