(* Tests for Section 4: the dwell-time bound formulas and their empirical
   verification across policies, networks and adversaries. *)

module R = Aqt_util.Ratio
module B = Aqt_graph.Build
module N = Aqt_engine.Network
module Sim = Aqt_engine.Sim
module S = Aqt.Stability
module Stock = Aqt_adversary.Stock
module RC = Aqt_adversary.Rate_check
module Policies = Aqt_policy.Policies

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Formulas                                                            *)
(* ------------------------------------------------------------------ *)

let floor_wr () =
  check_int "w=20 r=1/4" 5 (S.floor_wr ~w:20 ~rate:(R.make 1 4));
  check_int "w=7 r=1/3" 2 (S.floor_wr ~w:7 ~rate:(R.make 1 3))

let applicability () =
  (* Theorem 4.1 wants r <= 1/(d+1); Theorem 4.3 wants r <= 1/d.  Both are
     non-strict for empty-start systems. *)
  check_bool "greedy at exactly 1/(d+1)" true
    (S.greedy_applicable ~rate:(R.make 1 5) ~d:4);
  check_bool "greedy above" false (S.greedy_applicable ~rate:(R.make 1 4) ~d:4);
  check_bool "tp at exactly 1/d" true
    (S.time_priority_applicable ~rate:(R.make 1 4) ~d:4);
  check_bool "tp above" false
    (S.time_priority_applicable ~rate:(R.make 3 10) ~d:4)

let dwell_bound_selection () =
  check_bool "greedy bound" true
    (S.dwell_bound ~rate:(R.make 1 5) ~w:20 ~d:4 ~time_priority:false = Some 4);
  check_bool "greedy refusal" true
    (S.dwell_bound ~rate:(R.make 1 4) ~w:20 ~d:4 ~time_priority:false = None);
  check_bool "tp bound" true
    (S.dwell_bound ~rate:(R.make 1 4) ~w:20 ~d:4 ~time_priority:true = Some 5)

let observation_4_4 () =
  (* w* = ceil((S + w + 1)/(r* - r)). *)
  let w_star =
    S.converted_window ~s:10 ~w:5 ~rate:(R.make 1 8) ~r_star:(R.make 1 4)
  in
  check_int "w*" 128 w_star;
  Alcotest.check_raises "needs r < r*"
    (Invalid_argument "Stability.converted_window: need rate < r_star")
    (fun () ->
      ignore
        (S.converted_window ~s:1 ~w:1 ~rate:R.half ~r_star:(R.make 1 4)))

let corollaries () =
  (* Cor 4.6 (time-priority): r* = 1/d. *)
  (match S.corollary_bound ~s:10 ~w:5 ~rate:(R.make 1 8) ~d:4 ~time_priority:true with
  | Some b ->
      (* w* = ceil(16 / (1/4 - 1/8)) = 128; bound = floor(128/4) = 32. *)
      check_int "corollary 4.6 bound" 32 b
  | None -> Alcotest.fail "applicable");
  (* Rate at or above the threshold: no bound. *)
  check_bool "at threshold refused" true
    (S.corollary_bound ~s:10 ~w:5 ~rate:(R.make 1 4) ~d:4 ~time_priority:true
    = None)

let d_of_routes () =
  check_int "longest" 5
    (S.d_of_routes [ [| 0 |]; [| 0; 1; 2; 3; 4 |]; [| 1; 2 |] ]);
  check_int "empty" 0 (S.d_of_routes [])

(* ------------------------------------------------------------------ *)
(* Empirical verification                                              *)
(* ------------------------------------------------------------------ *)

(* Overlapping suffix routes on a line: all routes share the last edge. *)
let suffix_routes (l : B.line) d =
  List.init d (fun j -> Array.sub l.edges j (d - j))

let run_with net (adv : Stock.t) horizon =
  ignore (Sim.run ~net ~driver:adv.driver ~horizon ())

(* Theorem 4.3 on a contended workload: FIFO at r = 1/d, packed bursts. *)
let fifo_dwell_bound_holds () =
  let d = 4 and w = 40 in
  let l = B.line d in
  let rate = R.make 1 4 in
  let net =
    N.create ~log_injections:true ~graph:l.graph ~policy:Policies.fifo ()
  in
  let adv =
    Stock.windowed_burst ~packed:true ~w ~rate ~routes:[ l.edges ]
      ~horizon:4000 ()
  in
  run_with net adv 4100;
  (* Workload really is a (w,r) adversary. *)
  check_bool "windowed legal" true
    (RC.check_windowed ~m:d ~w ~rate (N.injection_log net) = Ok ());
  match S.verify_run ~w ~rate ~d net with
  | Some v ->
      check_int "bound floor(wr)" 10 v.bound;
      check_bool "dwell within bound" true v.ok;
      check_int "bound is tight here" 10 v.max_dwell_seen
  | None -> Alcotest.fail "theorem applies"

(* Theorem 4.1 for non-time-priority policies at r = 1/(d+1). *)
let greedy_dwell_bound_holds () =
  let d = 4 and w = 40 in
  let l = B.line d in
  let rate = R.make 1 5 in
  List.iter
    (fun policy ->
      let net = N.create ~graph:l.graph ~policy () in
      let adv =
        Stock.windowed_burst ~packed:true ~w ~rate ~routes:[ l.edges ]
          ~horizon:4000 ()
      in
      run_with net adv 4100;
      match S.verify_run ~w ~rate ~d net with
      | Some v ->
          if not v.ok then
            Alcotest.failf "%s dwell %d exceeds bound %d"
              policy.Aqt_engine.Policy_type.name v.max_dwell_seen v.bound
      | None -> Alcotest.fail "theorem applies")
    [
      Policies.lifo;
      Policies.ntg;
      Policies.ftg;
      Policies.nis;
      Policies.ffs;
      Policies.nts;
      Policies.random ~seed:99;
    ]

(* Overlapping routes on a shared edge, spread bursts. *)
let overlapping_routes_bound () =
  let d = 5 and w = 30 in
  let l = B.line d in
  let routes = suffix_routes l d in
  (* d routes share the last edge; per-route rate r/d keeps the aggregate at
     r = 1/d on every edge. *)
  let rate = R.make 1 5 in
  let per_route = R.make 1 25 in
  let net =
    N.create ~log_injections:true ~graph:l.graph ~policy:Policies.fifo ()
  in
  let adv = Stock.windowed_burst ~w ~rate:per_route ~routes ~horizon:6000 () in
  run_with net adv 6100;
  check_bool "aggregate windowed legal" true
    (RC.check_windowed ~m:d ~w ~rate (N.injection_log net) = Ok ());
  match S.verify_run ~w ~rate ~d net with
  | Some v -> check_bool "bound holds" true v.ok
  | None -> Alcotest.fail "theorem applies"

(* Corollary 4.6: an S-initial-configuration keeps a (larger) bound. *)
let initial_configuration_bound () =
  let d = 3 and w = 12 in
  let l = B.line d in
  let rate = R.make 1 6 (* strictly below 1/d = 1/3 *) in
  let net = N.create ~graph:l.graph ~policy:Policies.fifo () in
  let s = 9 in
  for _ = 1 to s do
    ignore (N.place_initial net l.edges)
  done;
  check_int "s_initial" s (N.s_initial net);
  let adv =
    Stock.windowed_burst ~packed:true ~w ~rate ~routes:[ l.edges ]
      ~horizon:3000 ()
  in
  run_with net adv 3100;
  match S.verify_run ~s_initial:s ~w ~rate ~d net with
  | Some v ->
      check_bool "corollary bound holds" true v.ok;
      (* The corollary bound is far above the empty-start bound. *)
      check_bool "bound exceeds floor(wr)" true
        (v.bound > S.floor_wr ~w ~rate)
  | None -> Alcotest.fail "corollary applies"

(* Property: random (w,r) workloads below 1/(d+1) never breach the bound,
   for any deterministic policy. *)
let prop_random_workloads_bounded =
  QCheck.Test.make ~name:"dwell bound holds on random legal workloads"
    ~count:40
    (QCheck.triple (QCheck.int_range 2 5) (QCheck.int_range 0 6)
       (QCheck.int_range 0 10_000))
    (fun (d, policy_idx, seed) ->
      let prng = Aqt_util.Prng.create seed in
      let l = B.line d in
      let w = 10 + Aqt_util.Prng.int prng 40 in
      let rate = R.make 1 (d + 1) in
      let policy = List.nth Policies.all_deterministic policy_idx in
      let net = N.create ~graph:l.graph ~policy () in
      let packed = Aqt_util.Prng.bool prng in
      let adv =
        Stock.windowed_burst ~packed ~w ~rate ~routes:[ l.edges ]
          ~horizon:1500 ()
      in
      run_with net adv 1600;
      match S.verify_run ~w ~rate ~d net with
      | Some v -> v.ok
      | None -> false)

(* Delivery-time bound: d * floor(wr) end to end. *)
let delivery_bound_holds () =
  check_bool "formula" true
    (S.delivery_bound ~rate:(R.make 1 5) ~w:20 ~d:4 ~time_priority:false
    = Some 16);
  let d = 5 and w = 60 in
  let rate = R.make 1 d in
  let l = B.line d in
  let net = N.create ~graph:l.graph ~policy:Policies.fifo () in
  let adv =
    Stock.windowed_burst ~packed:true ~w ~rate ~routes:[ l.edges ]
      ~horizon:6000 ()
  in
  run_with net adv 6200;
  match S.delivery_bound ~rate ~w ~d ~time_priority:true with
  | Some b ->
      check_bool "max latency within d*floor(wr)" true
        (N.delivered_latency_max net <= b)
  | None -> Alcotest.fail "bound applies"

(* The network-independent buffer bound implied by the dwell bound. *)
let buffer_bound_formula () =
  (* d=4, w=20, r=1/5 (greedy): dwell 4, span 20, bound (20/20+1)*4 = 8. *)
  check_bool "greedy buffer bound" true
    (S.buffer_bound ~rate:(R.make 1 5) ~w:20 ~d:4 ~time_priority:false
    = Some 8);
  check_bool "inapplicable" true
    (S.buffer_bound ~rate:(R.make 1 2) ~w:20 ~d:4 ~time_priority:false = None)

let buffer_bound_holds_empirically () =
  let d = 5 and w = 60 in
  let rate = R.make 1 (d + 1) in
  let l = B.line d in
  List.iter
    (fun policy ->
      let net = N.create ~graph:l.graph ~policy () in
      let adv =
        Stock.windowed_burst ~packed:true ~w ~rate ~routes:[ l.edges ]
          ~horizon:6000 ()
      in
      run_with net adv 6100;
      match S.buffer_bound ~rate ~w ~d ~time_priority:false with
      | Some b ->
          if N.max_queue_ever net > b then
            Alcotest.failf "%s buffer %d exceeds bound %d"
              policy.Aqt_engine.Policy_type.name (N.max_queue_ever net) b
      | None -> Alcotest.fail "bound applies")
    [ Policies.fifo; Policies.lifo; Policies.ntg ]

(* Observation 4.4 executably: the converted empty-start driver produces the
   same population one step later and its log is (w°, r°)-legal. *)
let converted_driver_equivalence () =
  let d = 3 and w = 12 in
  let l = B.line d in
  let rate = R.make 1 6 in
  let s = 9 in
  let mk_adv () =
    Stock.windowed_burst ~packed:true ~w ~rate ~routes:[ l.edges ]
      ~horizon:600 ()
  in
  (* Original: S-initial-configuration. *)
  let net1 = N.create ~graph:l.graph ~policy:Policies.fifo () in
  let initial = Array.init s (fun _ -> l.edges) in
  Array.iter (fun r -> ignore (N.place_initial net1 r)) initial;
  run_with net1 (mk_adv ()) 700;
  (* Converted: empty start, everything delayed one step. *)
  let net2 =
    N.create ~log_injections:true ~graph:l.graph ~policy:Policies.fifo ()
  in
  let driver = S.converted_driver ~initial ~driver:(mk_adv ()).driver in
  ignore (Aqt_engine.Sim.run ~net:net2 ~driver ~horizon:701 ());
  check_int "same absorbed one step later" (N.absorbed net1) (N.absorbed net2);
  check_int "same backlog" (N.in_flight net1) (N.in_flight net2);
  (* Its injection log satisfies the converted (w°, r°) window for r° = 1/d:
     w° = ceil((S + w + 1)/(r° - r)). *)
  let r_star = R.make 1 d in
  let w_star = S.converted_window ~s ~w ~rate ~r_star in
  check_bool "converted windowed constraint" true
    (Aqt_adversary.Rate_check.check_windowed ~m:d ~w:w_star ~rate:r_star
       (N.injection_log net2)
    = Ok ())

(* Above the threshold the theorem gives no bound — and one can exceed
   floor(wr): sanity-check that our harness can distinguish (this is not a
   theorem violation, just evidence the bound is not vacuous). *)
let above_threshold_dwell_can_exceed () =
  let d = 4 and w = 40 in
  let l = B.line d in
  let rate = R.make 1 2 (* far above 1/d *) in
  let net = N.create ~graph:l.graph ~policy:Policies.fifo () in
  let adv =
    Stock.windowed_burst ~packed:true ~w ~rate ~routes:[ l.edges ]
      ~horizon:2000 ()
  in
  run_with net adv 2100;
  check_bool "no theorem at 1/2" true (S.verify_run ~w ~rate ~d net = None);
  check_bool "dwell exceeded floor(wr)" true
    (N.max_dwell net > S.floor_wr ~w ~rate:(R.make 1 4))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "aqt_stability"
    [
      ( "formulas",
        [
          Alcotest.test_case "floor_wr" `Quick floor_wr;
          Alcotest.test_case "applicability" `Quick applicability;
          Alcotest.test_case "bound selection" `Quick dwell_bound_selection;
          Alcotest.test_case "observation 4.4" `Quick observation_4_4;
          Alcotest.test_case "corollaries 4.5/4.6" `Quick corollaries;
          Alcotest.test_case "d_of_routes" `Quick d_of_routes;
        ] );
      ( "simulation",
        [
          Alcotest.test_case "thm 4.3 FIFO tight" `Quick fifo_dwell_bound_holds;
          Alcotest.test_case "thm 4.1 all greedy" `Quick greedy_dwell_bound_holds;
          Alcotest.test_case "overlapping routes" `Quick overlapping_routes_bound;
          Alcotest.test_case "cor 4.6 initial config" `Quick
            initial_configuration_bound;
          Alcotest.test_case "delivery bound" `Quick delivery_bound_holds;
          Alcotest.test_case "buffer bound formula" `Quick buffer_bound_formula;
          Alcotest.test_case "buffer bound empirically" `Quick
            buffer_bound_holds_empirically;
          Alcotest.test_case "obs 4.4 converted driver" `Quick
            converted_driver_equivalence;
          Alcotest.test_case "above threshold" `Quick
            above_threshold_dwell_can_exceed;
          q prop_random_workloads_bounded;
        ] );
    ]
