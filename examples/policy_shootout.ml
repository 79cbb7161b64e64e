(* Eight queuing policies, one workload, side by side.

     dune exec examples/policy_shootout.exe

   Two workloads are run over every deterministic policy:

   1. a benign stochastic mix on a ring (all policies stable, but latency
      and queue profiles differ);
   2. the Theorem 3.17 injection sequence recorded from a FIFO run and
      replayed verbatim (Lemma 3.3's static adversary A') — FIFO blows up
      on it, the universally stable policies (LIS, FTG) shrug it off. *)

module Ratio = Aqt_util.Ratio
module Network = Aqt_engine.Network
module Policies = Aqt_policy.Policies
module Tbl = Aqt_util.Tbl

let benign_workload () =
  print_endline "Workload 1: stochastic mix on an 8-ring, aggregate rate 3/4.";
  let tbl =
    Tbl.create
      ~headers:[ "policy"; "absorbed"; "max queue"; "max dwell"; "mean latency" ]
  in
  List.iter
    (fun policy ->
      (* Per-route Bernoulli at (3/4)/4 ~ aggregate 3/4 per edge. *)
      let { Aqt.Sweep.net; _ } =
        Aqt.Sweep.simulate ~network:(Aqt_graph.Net_spec.Ring 8) ~d:4 ~policy
          ~rate:(Ratio.make 3 4) ~arrivals:(Aqt.Sweep.Bernoulli 1234)
          ~horizon:20_000 ()
      in
      Tbl.add_row tbl
        [
          policy.Aqt_engine.Policy_type.name;
          Tbl.fi (Network.absorbed net);
          Tbl.fi (Network.max_queue_ever net);
          Tbl.fi (Network.max_dwell net);
          Tbl.ff ~dec:2 (Network.delivered_latency_mean net);
        ])
    Policies.all_deterministic;
  Tbl.print tbl

let adversarial_workload () =
  print_endline
    "Workload 2: the Theorem 3.17 sequence (recorded under FIFO, replayed\n\
     verbatim as the static adversary A' of Lemma 3.3).";
  let eps = Ratio.make 1 5 in
  let cfg =
    Aqt.Instability.config ~eps ~s0:400 ~cycles:2 ~log_injections:true ()
  in
  let res = Aqt.Instability.run cfg in
  let log = Network.injection_log res.net in
  Printf.printf "recorded %d injections over %d steps (rate %s)\n"
    (Array.length log) res.outcome.steps_run
    (Ratio.to_string cfg.params.rate);
  let results =
    Aqt.Baselines.replay_against
      ~initial:(Network.initial_final_routes res.net)
      ~graph:res.gadget.graph ~rate:cfg.params.rate ~log
      ~policies:Policies.all_deterministic
      ~settle:(4 * cfg.params.s0) ()
  in
  let tbl =
    Tbl.create ~headers:[ "policy"; "max queue"; "backlog at end"; "absorbed" ]
  in
  List.iter
    (fun (r : Aqt.Baselines.replay_result) ->
      Tbl.add_row tbl
        [ r.policy; Tbl.fi r.max_queue; Tbl.fi r.backlog; Tbl.fi r.absorbed ])
    results;
  Tbl.print tbl;
  print_endline
    "FIFO retains a large backlog (and grows without bound if the adaptive\n\
     adversary keeps cycling); LIS and FTG — universally stable protocols —\n\
     drain the same injection sequence."

let () =
  benign_workload ();
  print_newline ();
  adversarial_workload ()
