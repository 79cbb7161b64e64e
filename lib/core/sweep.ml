module Network = Aqt_engine.Network
module Sim = Aqt_engine.Sim
module Recorder = Aqt_engine.Recorder
module Ratio = Aqt_util.Ratio
module Net_spec = Aqt_graph.Net_spec
module Stock = Aqt_adversary.Stock

type verdict = Stable | Growing | Blowup

let verdict_to_string = function
  | Stable -> "stable"
  | Growing -> "growing"
  | Blowup -> "blowup"

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

let classify ?(blowup = 200_000) ?route_table ~name ~graph ~policy ~adversary
    ~horizon () =
  (* Recycling is safe here: classify never holds a packet handle past
     absorption.  A caller-supplied [route_table] amortises route validation
     across the cells of a sweep grid (same graph, same route set, many
     policy/rate combinations). *)
  let net = Network.create ?route_table ~recycle:true ~graph ~policy () in
  let recorder = Recorder.make ~every:(max 1 (horizon / 200)) () in
  let outcome =
    Sim.run ~recorder ~blowup ~net
      ~driver:adversary.Aqt_adversary.Stock.driver ~horizon ()
  in
  let samples = Recorder.samples recorder in
  let backlog_at frac =
    if Array.length samples = 0 then Network.in_flight net
    else
      samples.(min (Array.length samples - 1)
                 (int_of_float (frac *. float_of_int (Array.length samples))))
        .Recorder.in_flight
  in
  let mid_backlog = backlog_at 0.5 in
  let final_backlog = Network.in_flight net in
  let verdict =
    match outcome.Sim.stop with
    | Sim.Blowup _ -> Blowup
    | _ ->
        (* Linear growth from an empty start has final = 2 * mid exactly, so
           a factor-2 test would miss it; 1.5x plus an additive floor flags
           sustained growth while tolerating bounded oscillation. *)
        if final_backlog > (3 * mid_backlog / 2) + 20 then Growing else Stable
  in
  {
    name;
    policy = policy.Aqt_engine.Policy_type.name;
    rate = adversary.Aqt_adversary.Stock.rate;
    verdict;
    max_queue = Network.max_queue_ever net;
    mid_backlog;
    final_backlog;
    steps_run = outcome.Sim.steps_run;
  }

let grid_headers = [ "policy"; "rate"; "verdict"; "max queue"; "final backlog" ]

let grid ?(workers = 1) ~network ~d ~policies ~rates ~horizon () =
  let graph, routes = Net_spec.build ~d network in
  let n_routes = Ratio.of_int (max 1 (List.length routes)) in
  let cells =
    List.concat_map (fun p -> List.map (fun r -> (p, r)) rates) policies
  in
  (* Each cell's network interns its own routes: no state is shared. *)
  let run_cell (policy, rate) =
    let adversary =
      Stock.shared_token_bucket ~rate:(Ratio.div rate n_routes) ~routes
        ~horizon ()
    in
    let r = classify ~name:"sweep" ~graph ~policy ~adversary ~horizon () in
    [
      r.policy;
      Ratio.to_string rate;
      verdict_to_string r.verdict;
      string_of_int r.max_queue;
      string_of_int r.final_backlog;
    ]
  in
  let workers = max 1 (min workers (List.length cells)) in
  Aqt_util.Parallel.map ~workers run_cell cells

type arrivals = Bursts | Bernoulli of int

type run = {
  net : Network.t;
  adversary : Stock.t;
  outcome : Sim.outcome;
  n_routes : int;
}

let simulate ?capacity ~network ~d ~policy ~rate ~arrivals ~horizon () =
  let graph, routes = Net_spec.build ~d network in
  let n_routes = List.length routes in
  let rate = Ratio.div rate (Ratio.of_int (max 1 (min d n_routes))) in
  let adversary =
    match arrivals with
    | Bursts -> Stock.windowed_burst ~w:40 ~rate ~routes ~horizon ()
    | Bernoulli seed ->
        Stock.bernoulli ~prng:(Aqt_util.Prng.create seed) ~rate ~routes ()
  in
  let net = Network.create ?capacity ~graph ~policy () in
  let outcome = Sim.run ~net ~driver:adversary.driver ~horizon () in
  { net; adversary; outcome; n_routes }
