(* Fat-tree(8), permutation traffic at utilisation 9/10, FIFO, unbounded
   buffers, record engine: the [Aqt_fabric.Scenario.run] record path, split
   so that building the topology and compiling the traffic are set-up and
   the steps plus the [check_local] certification are the timed job. *)

module Ratio = Aqt_util.Ratio
module Jsonx = Aqt_util.Jsonx
module Build = Aqt_graph.Build
module Digraph = Aqt_graph.Digraph
module Traffic = Aqt_workload.Traffic
module Network = Aqt_engine.Network
module Rate_check = Aqt_adversary.Rate_check
module Scenario = Aqt_fabric.Scenario

let scenario ~seed =
  Scenario.make
    ~topo:(Scenario.Fat_tree { k = 8 })
    ~pattern:Traffic.Permutation ~utilisation:(Ratio.make 9 10) ~horizon:5_000
    ~seed ()

(* Counters of [Scenario.run] (record backend, as printed by
   [aqt_sim fabric --topo fat-tree:8 --horizon 5000 --seed K]) for the
   default seed and the held-out one: injected, absorbed, max queue, mean
   latency.  Other seeds are held to the invariants only. *)
let golden =
  [
    (1, (576_000, 543_483, 1126, 330.24));
    (90_001, (576_000, 535_587, 1055, 383.23));
  ]

let sp_build = Span.register "graph.build"
let sp_compile = Span.register "workload.compile"
let sp_step = Span.register "engine.step"
let sp_check = Span.register "adversary.check_local"

(* [Scenario.compile] with the topology build and the traffic compile
   timed apart. *)
let compile_traced (sc : Scenario.t) =
  let s = Span.enter sp_build in
  let fabric = Scenario.build_topo sc.topo in
  Span.exit s;
  let s = Span.enter sp_compile in
  let compiled =
    Traffic.compile
      ~n_hosts:(Array.length fabric.Build.hosts)
      ~m:(Digraph.n_edges fabric.Build.graph)
      ~routes:fabric.Build.routes
      {
        Traffic.pattern = sc.pattern;
        conns_per_pair = sc.conns_per_pair;
        utilisation = sc.utilisation;
        flow_cdf = sc.flow_cdf;
        horizon = sc.horizon;
        seed = sc.seed;
      }
  in
  Span.exit s;
  (fabric, compiled)

let run ~traced ~seed =
  let sc = scenario ~seed in
  let steps = sc.horizon + sc.drain in
  if traced then Span.enable ~capacity:(steps + 64);
  let fabric, compiled =
    if traced then compile_traced sc else Scenario.compile sc
  in
  let graph = fabric.Build.graph in
  Job.start ();
  let net =
    Network.create ~log_injections:true ~recycle:true ~capacity:sc.capacity
      ~graph ~policy:sc.policy ()
  in
  for i = 0 to steps - 1 do
    let injs =
      if i < sc.horizon then
        List.map
          (fun route : Network.injection -> { route; tag = "fab" })
          compiled.Traffic.schedule.(i)
      else []
    in
    let s = Span.enter sp_step in
    Network.step net injs;
    Span.exit s
  done;
  let s = Span.enter sp_check in
  let legal =
    Rate_check.check_local ~rate:compiled.Traffic.rate
      ~sigmas:compiled.Traffic.sigmas (Network.injection_log net)
    = Ok ()
  in
  Span.exit s;
  Job.finish ();
  let injected = Network.injected_count net in
  let absorbed = Network.absorbed net in
  let in_flight = Network.in_flight net in
  let dropped = Network.dropped net in
  let max_queue = Network.max_queue_ever net in
  let latency = Network.delivered_latency_mean net in
  let errors = ref [] in
  Job.check errors legal "injection log fails check_local";
  Job.check errors (dropped = 0) "%d packets dropped by unbounded buffers"
    dropped;
  Job.check errors
    (injected = compiled.Traffic.packets)
    "injected %d of %d scheduled" injected compiled.Traffic.packets;
  Job.check errors
    (absorbed + in_flight = injected)
    "absorbed %d + in flight %d <> injected %d" absorbed in_flight injected;
  (match List.assoc_opt seed golden with
  | None -> ()
  | Some (g_inj, g_abs, g_mq, g_lat) ->
      Job.check errors
        (injected = g_inj && absorbed = g_abs && max_queue = g_mq
        && Float.abs (latency -. g_lat) < 0.005)
        "seed %d: injected %d absorbed %d max_queue %d latency %.2f, want \
         %d %d %d %.2f"
        seed injected absorbed max_queue latency g_inj g_abs g_mq g_lat);
  let sent = ref 0 in
  for e = 0 to Digraph.n_edges graph - 1 do
    sent := !sent + Network.sent_on_edge net e
  done;
  {
    Job.units = Network.now net;
    latencies_ms = [| 1000. *. Job.seconds () |];
    stats =
      [
        ("legal", Jsonx.Bool legal);
        ("injected", Jsonx.Int injected);
        ("absorbed", Jsonx.Int absorbed);
        ("in_flight", Jsonx.Int in_flight);
        ("max_queue", Jsonx.Int max_queue);
        ("latency_mean", Jsonx.Float latency);
        ("flows", Jsonx.Int (Array.length compiled.Traffic.flows));
        ("forwards", Jsonx.Int !sent);
      ];
    attempted = 1;
    failed = (if !errors = [] then 0 else 1);
    errors = !errors;
    layers =
      [
        ("engine.forwards", float_of_int !sent);
        ("engine.reroutes", float_of_int (Network.reroute_count net));
      ];
    replay_s = 0.;
  }
