(* Differential tests for the zero-allocation engine fast path.

   The fast configuration (no tracer, packet recycling, shared pre-warmed
   route intern table) must be observationally identical to the fully
   instrumented slow configuration (tracer attached, injection logging,
   private table, no recycling) on the same injection schedule: same
   per-step recorder trajectory, same buffer contents, same aggregate
   statistics.  Randomised over graphs, policies and schedules, including
   reroute-heavy runs (reroutes build fresh arrays next to interned ones). *)

module D = Aqt_graph.Digraph
module B = Aqt_graph.Build
module N = Aqt_engine.Network
module RI = Aqt_engine.Route_intern
module Packet = Aqt_engine.Packet
module Sim = Aqt_engine.Sim
module Recorder = Aqt_engine.Recorder
module Policies = Aqt_policy.Policies
module Prng = Aqt_util.Prng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Route_intern units                                                  *)
(* ------------------------------------------------------------------ *)

let intern_canonical_sharing () =
  let tbl = RI.create () in
  let r1 = [| 3; 4; 5 |] and r2 = [| 3; 4; 5 |] in
  let c1 = RI.intern tbl r1 in
  let c2 = RI.intern tbl r2 in
  check_bool "same contents share one canonical array" true (c1 == c2);
  check_int "one distinct route" 1 (RI.distinct tbl);
  check_int "one miss" 1 (RI.misses tbl);
  check_int "one hit" 1 (RI.hits tbl);
  (* Copy-on-intern: the canonical array is detached from the caller's. *)
  check_bool "canonical is a copy" true (c1 != r1);
  r1.(0) <- 99;
  check_int "mutating the source does not corrupt the table" 3 c1.(0);
  check_bool "lookup still works after source mutation" true
    (RI.intern tbl r2 == c1)

let intern_distinguishes_contents () =
  let tbl = RI.create () in
  let a = RI.intern tbl [| 1; 2 |] in
  let b = RI.intern tbl [| 1; 3 |] in
  let c = RI.intern tbl [| 1; 2; 3 |] in
  check_bool "different contents, different canonicals" true
    (a != b && b != c && a != c);
  check_int "three distinct" 3 (RI.distinct tbl)

let intern_validation_once () =
  (* The network validates a route only on its first appearance; invalid
     routes are still rejected on injection. *)
  let l = B.line 3 in
  let net = N.create ~graph:l.graph ~policy:Policies.fifo () in
  Alcotest.check_raises "invalid route rejected"
    (Invalid_argument "Network: route [e0;e2] is not a simple path")
    (fun () -> N.step net [ { N.route = [| l.edges.(0); l.edges.(2) |]; tag = "x" } ]);
  N.step net [ { N.route = l.edges; tag = "ok" } ];
  let tbl = N.route_table net in
  let misses_before = RI.misses tbl in
  for _ = 1 to 10 do
    N.step net [ { N.route = Array.copy l.edges; tag = "ok" } ]
  done;
  check_int "ten re-injections validate nothing new" misses_before
    (RI.misses tbl);
  check_int "all further injections are table hits" (RI.hits tbl - 0) (RI.hits tbl)

let shared_table_across_networks () =
  let l = B.line 4 in
  let tbl = RI.create () in
  let net1 = N.create ~route_table:tbl ~graph:l.graph ~policy:Policies.fifo () in
  let net2 = N.create ~route_table:tbl ~graph:l.graph ~policy:Policies.lifo () in
  N.step net1 [ { N.route = l.edges; tag = "a" } ];
  let misses = RI.misses tbl in
  N.step net2 [ { N.route = Array.copy l.edges; tag = "b" } ];
  check_int "second network reuses the first one's validation" misses
    (RI.misses tbl);
  check_int "one distinct route across both" 1 (RI.distinct tbl)

(* ------------------------------------------------------------------ *)
(* Packet pool                                                         *)
(* ------------------------------------------------------------------ *)

let pool_recycles_records () =
  let l = B.line 2 in
  let net = N.create ~recycle:true ~graph:l.graph ~policy:Policies.fifo () in
  N.step net [ { N.route = l.edges; tag = "first" } ];
  N.step net [];
  N.step net [];
  check_int "absorbed" 1 (N.absorbed net);
  check_int "record parked in the pool" 1 (N.pooled net);
  (* The recycled record is reinitialised for the next packet. *)
  N.step net [ { N.route = Array.sub l.edges 0 1; tag = "second" } ];
  check_int "pool drained by the new injection" 0 (N.pooled net);
  let seen = ref [] in
  N.iter_buffered (fun p -> seen := p :: !seen) net;
  (match !seen with
  | [ p ] ->
      check_int "fresh id" 1 p.Packet.id;
      check_int "fresh hop" 0 p.Packet.hop;
      check_int "fresh injected_at" 4 p.Packet.injected_at;
      check_bool "fresh tag" true (p.Packet.tag = "second");
      check_int "fresh route" 1 (Array.length p.Packet.route)
  | l -> Alcotest.failf "expected exactly one buffered packet, got %d"
           (List.length l));
  (* Without recycling nothing is pooled. *)
  let plain = N.create ~graph:l.graph ~policy:Policies.fifo () in
  N.step plain [ { N.route = l.edges; tag = "x" } ];
  N.step plain [];
  N.step plain [];
  check_int "no pooling by default" 0 (N.pooled plain)

(* ------------------------------------------------------------------ *)
(* Steady-state allocation                                             *)
(* ------------------------------------------------------------------ *)

let steady_state_zero_major_growth () =
  let k = 50 in
  let ring = B.ring k in
  let routes =
    Array.init k (fun i -> Array.init 4 (fun j -> ring.edges.((i + j) mod k)))
  in
  let net = N.create ~recycle:true ~graph:ring.graph ~policy:Policies.fifo () in
  let t = ref 0 in
  let driver =
    Sim.injections_only (fun _ _ ->
        incr t;
        if !t land 1 = 0 then [ { N.route = routes.(!t mod k); tag = "s" } ]
        else [])
  in
  (* Warm up: intern every route, size every buffer, fill the pool. *)
  ignore (Sim.run ~net ~driver ~horizon:2_000 ());
  Gc.full_major ();
  let recorder = Recorder.make ~every:100 () in
  ignore (Sim.run ~recorder ~net ~driver ~horizon:50_000 ());
  Gc.full_major ();
  let growth = Recorder.major_words_per_step recorder in
  if growth > 1.0 then
    Alcotest.failf "major heap grows %.3f words/step in steady state" growth;
  check_bool "recorder saw gc counters move monotonically" true
    (let s = Recorder.samples recorder in
     Array.length s >= 2
     && s.(0).Recorder.gc_minor_words
        <= s.(Array.length s - 1).Recorder.gc_minor_words);
  check_int "network still conserves packets" (N.injected_count net)
    (N.absorbed net + N.in_flight net)

(* ------------------------------------------------------------------ *)
(* Differential property: fast path == instrumented path               *)
(* ------------------------------------------------------------------ *)

type scenario = {
  graph : D.t;
  routes : int array array;
  policy_name : string;
  schedule : int list array; (* per step, indices into routes *)
  reroute_heavy : bool;
}

let gen_scenario seed =
  let rng = Prng.create seed in
  let graph, routes =
    match Prng.int rng 3 with
    | 0 ->
        let k = 3 + Prng.int rng 8 in
        let r = B.ring k in
        let routes =
          Array.init (2 * k) (fun _ ->
              let start = Prng.int rng k and len = 1 + Prng.int rng (k - 1) in
              Array.init len (fun j -> r.edges.((start + j) mod k)))
        in
        (r.graph, routes)
    | 1 ->
        let k = 2 + Prng.int rng 8 in
        let l = B.line k in
        let routes =
          Array.init (2 * k) (fun _ ->
              let start = Prng.int rng k in
              let len = 1 + Prng.int rng (k - start) in
              Array.sub l.edges start len)
        in
        (l.graph, routes)
    | _ ->
        let p = B.parallel_paths ~branches:(2 + Prng.int rng 3) ~hops:(2 + Prng.int rng 3) in
        (p.graph, Array.concat [ p.paths; p.paths ])
  in
  let policy_name =
    Prng.pick rng [| "fifo"; "lifo"; "lis"; "nis"; "ftg"; "ntg" |]
  in
  let horizon = 60 + Prng.int rng 120 in
  let schedule =
    Array.init horizon (fun _ ->
        if Prng.int rng 2 = 0 then []
        else
          List.init (1 + Prng.int rng 2) (fun _ ->
              Prng.int rng (Array.length routes)))
  in
  { graph; routes; policy_name; schedule; reroute_heavy = Prng.bool rng }

(* Deterministic reroute pass: truncate the route of every buffered packet
   whose id matches, so it gets absorbed at its next hop.  Identical packet
   ids see identical rewrites in both configurations. *)
let reroute_pass net =
  let victims = ref [] in
  N.iter_buffered
    (fun p ->
      if p.Packet.id mod 5 = 2 && Packet.remaining p > 1 then
        victims := p :: !victims)
    net;
  List.iter (fun p -> N.reroute net p [||]) !victims

let buffer_fingerprint net graph =
  let b = Buffer.create 256 in
  for e = 0 to D.n_edges graph - 1 do
    List.iter
      (fun (p : Packet.t) ->
        Buffer.add_string b
          (Printf.sprintf "e%d:id%d,hop%d,inj%d,rr%d,[%s];" e p.id p.hop
             p.injected_at p.reroutes
             (String.concat ","
                (Array.to_list (Array.map string_of_int p.route)))))
      (N.buffer_packets net e)
  done;
  Buffer.contents b

let sample_fingerprint (s : Recorder.sample) =
  (* GC fields differ between configurations by design; everything
     observable about the simulation must not. *)
  (s.t, s.in_flight, s.cur_max_queue, s.absorbed, s.max_dwell)

let run_config ~fast scenario =
  let policy = Policies.by_name scenario.policy_name in
  let net =
    if fast then begin
      (* Shared, pre-warmed table: every route interned before the run. *)
      let table = RI.create () in
      Array.iter (fun r -> ignore (RI.intern table r)) scenario.routes;
      N.create ~route_table:table ~recycle:true ~graph:scenario.graph ~policy ()
    end
    else
      N.create ~log_injections:true ~tracer:(fun _ -> ()) ~graph:scenario.graph
        ~policy ()
  in
  let recorder = Recorder.make () in
  Array.iter
    (fun idxs ->
      if scenario.reroute_heavy then reroute_pass net;
      N.step net
        (List.map (fun i -> { N.route = scenario.routes.(i); tag = "d" }) idxs);
      Recorder.observe recorder net)
    scenario.schedule;
  let trajectory =
    Array.to_list (Array.map sample_fingerprint (Recorder.samples recorder))
  in
  ( trajectory,
    buffer_fingerprint net scenario.graph,
    ( N.max_queue_ever net,
      N.max_dwell net,
      N.absorbed net,
      N.in_flight net,
      N.injected_count net,
      N.reroute_count net,
      N.delivered_latency_max net ) )

let prop_fastpath_differential =
  QCheck.Test.make ~count:60 ~name:"fast path == instrumented path"
    QCheck.(map (fun n -> abs n) int)
    (fun seed ->
      let scenario = gen_scenario seed in
      let slow_traj, slow_bufs, slow_stats = run_config ~fast:false scenario in
      let fast_traj, fast_bufs, fast_stats = run_config ~fast:true scenario in
      if slow_traj <> fast_traj then
        QCheck.Test.fail_reportf "trajectories diverge (seed %d)" seed;
      if slow_bufs <> fast_bufs then
        QCheck.Test.fail_reportf "buffer contents diverge (seed %d):\n%s\nvs\n%s"
          seed slow_bufs fast_bufs;
      if slow_stats <> fast_stats then
        QCheck.Test.fail_reportf "aggregate statistics diverge (seed %d)" seed;
      true)

let q = QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "aqt_fastpath"
    [
      ( "route_intern",
        [
          Alcotest.test_case "canonical sharing" `Quick intern_canonical_sharing;
          Alcotest.test_case "distinguishes contents" `Quick
            intern_distinguishes_contents;
          Alcotest.test_case "validation once" `Quick intern_validation_once;
          Alcotest.test_case "shared across networks" `Quick
            shared_table_across_networks;
        ] );
      ( "pool",
        [ Alcotest.test_case "recycles records" `Quick pool_recycles_records ] );
      ( "steady-state",
        [
          Alcotest.test_case "zero major growth" `Quick
            steady_state_zero_major_growth;
        ] );
      ("differential", [ q prop_fastpath_differential ]);
    ]
