(* Theorem 3.17 at eps = 1/5, three cycles: e1's largest row.  The
   construction is deterministic, so this workload ignores the seed. *)

module Ratio = Aqt_util.Ratio
module Jsonx = Aqt_util.Jsonx
module Network = Aqt_engine.Network
module Phased = Aqt_adversary.Phased
module Instability = Aqt.Instability
module Gadget = Aqt.Gadget

(* The run's golden output: the seed queue before each cycle and after the
   last, the largest queue, the reroutes and the simulated steps. *)
let golden_seeds = [ 2314; 3741; 6032; 9703 ]
let golden_max_queue = 30_732
let golden_reroutes = 279_241
let golden_steps = 450_978

let config () = Instability.config ~eps:(Ratio.make 1 5) ~cycles:3 ()

let forwards net =
  let s = ref 0 in
  for e = 0 to Aqt_graph.Digraph.n_edges (Network.graph net) - 1 do
    s := !s + Network.sent_on_edge net e
  done;
  !s

let sp_build = Span.register "graph.build"
let sp_phase = Span.register "core.phase_setup"
let sp_before = Span.register "adversary.before_step"
let sp_inject = Span.register "adversary.inject"
let sp_step = Span.register "engine.step"

(* [Instability.run] with a span around each call into a layer: the gadget
   build, every [Phased.phase] call, the drivers' [before_step] and
   [injections_at], and [Network.step].  Same network, same phases, same
   stop rule, so it simulates exactly what the untraced run does. *)
let replay (cfg : Instability.config) =
  let s = Span.enter sp_build in
  let gadget = Gadget.cyclic ~f_len:cfg.f_len ~n:cfg.params.n ~m:cfg.m () in
  Span.exit s;
  let net =
    Network.create ~log_injections:cfg.log_injections ~graph:gadget.graph
      ~policy:Aqt_policy.Policies.fifo ()
  in
  let seed_route = Gadget.seed_route gadget in
  for _ = 1 to cfg.seed do
    ignore (Network.place_initial ~tag:"seed" net seed_route)
  done;
  let seeds = ref [] in
  let on_cycle _ _ =
    seeds := Network.buffer_len net (Gadget.ingress gadget ~k:1) :: !seeds
  in
  let phases =
    List.map
      (fun (phase : Phased.phase) : Phased.phase ->
        fun net start ->
         let s = Span.enter sp_phase in
         let r = phase net start in
         Span.exit s;
         r)
      (Instability.phases cfg gadget)
  in
  let driver = Phased.cycle ~on_cycle phases in
  let steps = ref 0 in
  while List.length !seeds <= cfg.cycles && !steps < cfg.max_steps do
    let t = Network.now net + 1 in
    let s = Span.enter sp_before in
    driver.before_step net t;
    Span.exit s;
    let s = Span.enter sp_inject in
    let injs = driver.injections_at net t in
    Span.exit s;
    let s = Span.enter sp_step in
    Network.step net injs;
    Span.exit s;
    incr steps
  done;
  (List.rev !seeds, net)

let run ~traced ~seed:_ =
  let cfg = config () in
  if traced then Span.enable ~capacity:(3 * golden_steps + 64);
  Job.start ();
  let seeds, net =
    if traced then replay cfg
    else
      let res = Instability.run cfg in
      ( Array.to_list
          (Array.map (fun (s : Instability.cycle_stat) -> s.seed) res.stats),
        res.net )
  in
  Job.finish ();
  let steps = Network.now net in
  let forwards = forwards net in
  let max_queue = Network.max_queue_ever net in
  let reroutes = Network.reroute_count net in
  let errors = ref [] in
  Job.check errors (seeds = golden_seeds) "cycle seeds [%s], want [%s]"
    (String.concat ";" (List.map string_of_int seeds))
    (String.concat ";" (List.map string_of_int golden_seeds));
  Job.check errors
    (max_queue = golden_max_queue)
    "max_queue %d, want %d" max_queue golden_max_queue;
  Job.check errors
    (reroutes = golden_reroutes)
    "reroutes %d, want %d" reroutes golden_reroutes;
  Job.check errors (steps = golden_steps) "steps %d, want %d" steps
    golden_steps;
  {
    Job.units = steps;
    latencies_ms = [| 1000. *. Job.seconds () |];
    stats =
      [
        ("seeds", Jsonx.List (List.map (fun s -> Jsonx.Int s) seeds));
        ("max_queue", Jsonx.Int max_queue);
        ("reroutes", Jsonx.Int reroutes);
        ("steps", Jsonx.Int steps);
        ("forwards", Jsonx.Int forwards);
      ];
    attempted = 1;
    failed = (if !errors = [] then 0 else 1);
    errors = !errors;
    layers =
      [
        ("engine.forwards", float_of_int forwards);
        ("engine.reroutes", float_of_int reroutes);
      ];
    replay_s = 0.;
  }
