module Ratio = Aqt_util.Ratio
module D = Aqt_graph.Digraph
module Build = Aqt_graph.Build
module Traffic = Aqt_workload.Traffic
module Backend = Aqt_engine.Backend
module Policies = Aqt_policy.Policies
module Capacity = Aqt_capacity.Model
module Rate_check = Aqt_adversary.Rate_check

type topo =
  | Spine_leaf of { spines : int; leaves : int; hosts_per_leaf : int }
  | Fat_tree of { k : int }

let topo_to_string = function
  | Spine_leaf { spines; leaves; hosts_per_leaf } ->
      Printf.sprintf "spine-leaf:%d,%d,%d" spines leaves hosts_per_leaf
  | Fat_tree { k } -> Printf.sprintf "fat-tree:%d" k

let build_topo = function
  | Spine_leaf { spines; leaves; hosts_per_leaf } ->
      Build.spine_leaf ~spines ~leaves ~hosts_per_leaf
  | Fat_tree { k } -> Build.fat_tree ~k

(* The generator is the one judge of a valid topology, so a parse that
   succeeds syntactically is built once to surface its range checks. *)
let topo_of_string s =
  let ints v = List.map int_of_string_opt (String.split_on_char ',' v) in
  let topo =
    match String.split_on_char ':' (String.trim s) with
    | [ "spine-leaf"; dims ] -> (
        match ints dims with
        | [ Some spines; Some leaves; Some hosts_per_leaf ] ->
            Some (Spine_leaf { spines; leaves; hosts_per_leaf })
        | _ -> None)
    | [ "fat-tree"; k ] ->
        Option.map (fun k -> Fat_tree { k }) (int_of_string_opt k)
    | _ -> None
  in
  match topo with
  | None ->
      Error
        (Printf.sprintf "unknown topology %S (fat-tree:K | spine-leaf:S,L,H)" s)
  | Some t -> (
      match build_topo t with
      | _ -> Ok t
      | exception Invalid_argument msg -> Error msg)

type t = {
  name : string;
  topo : topo;
  pattern : Traffic.pattern;
  conns_per_pair : int;
  utilisation : Ratio.t;
  flow_cdf : (int * int) list;
  policy : Aqt_engine.Policy_type.t;
  capacity : Capacity.t;
  horizon : int;
  drain : int;
  seed : int;
}

let make ?(name = "") ?(conns_per_pair = 1) ?(flow_cdf = Traffic.default_cdf)
    ?(policy = Policies.fifo) ?(capacity = Capacity.unbounded) ?(drain = 200)
    ?(seed = 1) ~topo ~pattern ~utilisation ~horizon () =
  let name = if name <> "" then name else topo_to_string topo in
  {
    name;
    topo;
    pattern;
    conns_per_pair;
    utilisation;
    flow_cdf;
    policy;
    capacity;
    horizon;
    drain;
    seed;
  }

let compile t =
  let fabric = build_topo t.topo in
  let spec =
    {
      Traffic.pattern = t.pattern;
      conns_per_pair = t.conns_per_pair;
      utilisation = t.utilisation;
      flow_cdf = t.flow_cdf;
      horizon = t.horizon;
      seed = t.seed;
    }
  in
  let compiled =
    Traffic.compile
      ~n_hosts:(Array.length fabric.Build.hosts)
      ~m:(D.n_edges fabric.Build.graph)
      ~routes:fabric.Build.routes spec
  in
  (fabric, compiled)

type outcome = {
  scenario : t;
  backend : string;
  nodes : int;
  edges : int;
  n_hosts : int;
  n_pairs : int;
  n_flows : int;
  injected : int;
  absorbed : int;
  dropped : int;
  in_flight : int;
  max_queue : int;
  peak_occupancy : int;
  max_dwell : int;
  latency_mean : float;
  legal : bool;
}

let run ?backend t =
  let fabric, compiled = compile t in
  let graph = fabric.Build.graph in
  let net =
    Backend.create ~log_injections:true ~capacity:t.capacity ?backend ~graph
      ~policy:t.policy ()
  in
  Fun.protect ~finally:(fun () -> Backend.shutdown net) @@ fun () ->
  for i = 0 to t.horizon + t.drain - 1 do
    let routes =
      if i < t.horizon then compiled.Traffic.schedule.(i) else []
    in
    Backend.step net
      (List.map
         (fun route : Backend.injection -> { route; tag = "fab" })
         routes)
  done;
  {
    scenario = t;
    backend = Backend.kind net;
    nodes = D.n_nodes graph;
    edges = D.n_edges graph;
    n_hosts = Array.length fabric.Build.hosts;
    n_pairs = Array.length compiled.Traffic.pairs;
    n_flows = Array.length compiled.Traffic.flows;
    injected = Backend.injected_count net;
    absorbed = Backend.absorbed net;
    dropped = Backend.dropped net;
    in_flight = Backend.in_flight net;
    max_queue = Backend.max_queue_ever net;
    peak_occupancy = Backend.peak_occupancy net;
    max_dwell = Backend.max_dwell net;
    latency_mean = Backend.delivered_latency_mean net;
    legal =
      Rate_check.check_local ~rate:compiled.Traffic.rate
        ~sigmas:compiled.Traffic.sigmas (Backend.injection_log net)
      = Ok ();
  }

(* Canned scenarios for `aqt_sim fabric --list` and quick CLI runs.  The
   shared-buffer budgets follow the exemplar sizing: a per-port budget
   times the port count, concentrated by the DT rule where the traffic
   lands. *)
let catalog () =
  [
    make ~name:"ft4-incast"
      ~topo:(Fat_tree { k = 4 })
      ~pattern:(Traffic.Incast { senders = 15 })
      ~utilisation:Ratio.one ~horizon:2_000 ();
    make ~name:"ft4-permutation"
      ~topo:(Fat_tree { k = 4 })
      ~pattern:Traffic.Permutation
      ~utilisation:(Ratio.make 9 10)
      ~horizon:2_000 ();
    make ~name:"sl-hotspot-dt"
      ~topo:(Spine_leaf { spines = 4; leaves = 8; hosts_per_leaf = 4 })
      ~pattern:(Traffic.Hotspot { hot_num = 1; hot_den = 2 })
      ~utilisation:Ratio.one
      ~capacity:(Capacity.shared ~alpha_num:1 ~alpha_den:1 256)
      ~horizon:2_000 ();
    make ~name:"sl-alltoall"
      ~topo:(Spine_leaf { spines = 2; leaves = 4; hosts_per_leaf = 2 })
      ~pattern:Traffic.All_to_all
      ~utilisation:(Ratio.make 3 4)
      ~horizon:1_000 ();
    make ~name:"ft6-permutation-lis"
      ~topo:(Fat_tree { k = 6 })
      ~pattern:Traffic.Permutation ~policy:Policies.lis
      ~utilisation:(Ratio.make 9 10)
      ~horizon:1_000 ();
  ]

let find_catalog name =
  List.find_opt (fun t -> t.name = name) (catalog ())
