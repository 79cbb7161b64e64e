(* Tests for flows, the exact rate checkers, stock adversaries and phase
   sequencing. *)

module R = Aqt_util.Ratio
module B = Aqt_graph.Build
module N = Aqt_engine.Network
module Sim = Aqt_engine.Sim
module Flow = Aqt_adversary.Flow
module RC = Aqt_adversary.Rate_check
module Stock = Aqt_adversary.Stock
module Phased = Aqt_adversary.Phased
module Policies = Aqt_policy.Policies

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Flow                                                                *)
(* ------------------------------------------------------------------ *)

let flow_cumulative () =
  let f = Flow.make ~route:[| 0 |] ~rate:(R.make 2 5) ~start:10 ~stop:19 () in
  check_int "before start" 0 (Flow.cumulative f 9);
  check_int "after 1 step" 0 (Flow.cumulative f 10);
  check_int "after 3 steps" 1 (Flow.cumulative f 12);
  check_int "after 5 steps" 2 (Flow.cumulative f 14);
  check_int "at stop" 4 (Flow.cumulative f 19);
  check_int "beyond stop" 4 (Flow.cumulative f 100);
  check_int "total" 4 (Flow.total f)

let flow_count_at_sums () =
  let f = Flow.make ~route:[| 0 |] ~rate:(R.make 3 7) ~start:1 ~stop:50 () in
  let sum = ref 0 in
  for t = 0 to 60 do
    sum := !sum + Flow.count_at f t
  done;
  check_int "counts sum to total" (Flow.total f) !sum

let flow_max_total () =
  let f =
    Flow.make ~max_total:3 ~route:[| 0 |] ~rate:R.one ~start:1 ~stop:100 ()
  in
  check_int "capped" 3 (Flow.total f);
  check_bool "last injection" true (Flow.last_injection_step f = Some 3)

let flow_last_injection () =
  let f = Flow.make ~route:[| 0 |] ~rate:(R.make 1 4) ~start:5 ~stop:20 () in
  (* Cumulative hits 1 at t=8, 2 at 12, 3 at 16, 4 at 20. *)
  check_bool "last at stop" true (Flow.last_injection_step f = Some 20);
  let empty =
    Flow.make ~route:[| 0 |] ~rate:(R.make 1 10) ~start:1 ~stop:5 ()
  in
  check_bool "empty flow" true (Flow.last_injection_step empty = None)

let flow_rejects () =
  Alcotest.check_raises "start > stop"
    (Invalid_argument "Flow.make: start > stop") (fun () ->
      ignore (Flow.make ~route:[| 0 |] ~rate:R.half ~start:5 ~stop:4 ()));
  Alcotest.check_raises "rate 0"
    (Invalid_argument "Flow.make: rate must be in (0, 1]") (fun () ->
      ignore (Flow.make ~route:[| 0 |] ~rate:R.zero ~start:1 ~stop:2 ()));
  Alcotest.check_raises "rate > 1"
    (Invalid_argument "Flow.make: rate must be in (0, 1]") (fun () ->
      ignore (Flow.make ~route:[| 0 |] ~rate:(R.make 3 2) ~start:1 ~stop:2 ()))

let prop_flow_prefix_rate =
  QCheck.Test.make ~name:"flow prefix counts obey floor(r*len)" ~count:300
    (QCheck.triple
       (QCheck.pair (QCheck.int_range 1 10) (QCheck.int_range 1 10))
       (QCheck.int_range 1 50) (QCheck.int_range 0 80))
    (fun ((p, q), start, extra) ->
      let num = min p q and den = max p q in
      let rate = R.make num den in
      let f = Flow.make ~route:[| 0 |] ~rate ~start ~stop:(start + 60) () in
      let t = start + extra in
      Flow.cumulative f t <= R.floor_mul rate (min (t - start + 1) 61)
      && Flow.cumulative f t >= 0
      && Flow.cumulative f t >= Flow.cumulative f (t - 1))

(* ------------------------------------------------------------------ *)
(* Rate_check                                                          *)
(* ------------------------------------------------------------------ *)

let log_of_times edge times =
  Array.of_list (List.map (fun t -> (t, [| edge |])) times)

let rate_check_accepts_legal () =
  (* 1 packet every 2 steps is exactly rate 1/2. *)
  let log = log_of_times 0 [ 1; 3; 5; 7; 9 ] in
  check_bool "legal" true (RC.check_rate ~m:1 ~rate:R.half log = Ok ())

let rate_check_rejects_burst () =
  (* Two same-step packets exceed ceil(1/2 * 1) = 1. *)
  let log = log_of_times 0 [ 4; 4 ] in
  match RC.check_rate ~m:1 ~rate:R.half log with
  | Ok () -> Alcotest.fail "burst must be rejected"
  | Error v ->
      check_int "edge" 0 v.RC.edge;
      check_int "t1" 4 v.RC.t1;
      check_int "t2" 4 v.RC.t2;
      check_int "count" 2 v.RC.count;
      check_int "allowed" 1 v.RC.allowed

let rate_check_interval_violation () =
  (* Rate 1/3: interval [5,7] (len 3) allows ceil(1)=1 but receives 2. *)
  let log = log_of_times 0 [ 5; 7; 10 ] in
  (match RC.check_rate ~m:1 ~rate:(R.make 1 3) log with
  | Ok () -> Alcotest.fail "should fail"
  | Error v ->
      check_int "count" 2 v.RC.count;
      check_int "t1" 5 v.RC.t1;
      check_int "t2" 7 v.RC.t2;
      check_int "allowed" 1 v.RC.allowed);
  (* Same times at rate 1/2 are fine: ceil(6/2) = 3. *)
  check_bool "ok at 1/2" true
    (RC.check_rate ~m:1 ~rate:R.half (log_of_times 0 [ 5; 7; 10 ]) = Ok ())

let rate_check_multi_edge_routes () =
  (* A route hits every edge it contains. *)
  let log = [| (1, [| 0; 1 |]); (2, [| 1 |]) |] in
  match RC.check_rate ~m:2 ~rate:(R.make 1 2) log with
  | Ok () -> Alcotest.fail "edge 1 is overloaded"
  | Error v -> check_int "edge 1 flagged" 1 v.RC.edge

let rate_check_unsorted_rejected () =
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Rate_check: log not sorted by injection time")
    (fun () ->
      ignore (RC.check_rate ~m:1 ~rate:R.half (log_of_times 0 [ 5; 3 ])))

let windowed_check () =
  let rate = R.make 1 4 in
  (* w=8 allows 2 per window; 3 packets within any 8 steps violate. *)
  let bad = log_of_times 0 [ 1; 4; 8 ] in
  (match RC.check_windowed ~m:1 ~w:8 ~rate bad with
  | Ok () -> Alcotest.fail "windowed violation missed"
  | Error v ->
      check_int "count" 3 v.RC.count;
      check_int "allowed" 2 v.RC.allowed);
  let good = log_of_times 0 [ 1; 4; 12; 15; 23 ] in
  check_bool "legal windowed" true (RC.check_windowed ~m:1 ~w:8 ~rate good = Ok ())

let windowed_check_boundary () =
  (* Def 2.1 audit: windows are CLOSED intervals of w consecutive steps,
     [t-w+1, t].  With w=3 and r=1/3 exactly one packet fits per window;
     the off-by-one failure modes are counting the window half-open
     (admitting t=1,t=3) or over-closed (rejecting t=1,t=4). *)
  let rate = R.make 1 3 in
  check_bool "t=1 and t=3 share the closed window [1,3]" true
    (Result.is_error
       (RC.check_windowed ~m:1 ~w:3 ~rate (log_of_times 0 [ 1; 3 ])));
  check_bool "t=1 and t=4 are w apart: legal" true
    (RC.check_windowed ~m:1 ~w:3 ~rate (log_of_times 0 [ 1; 4 ]) = Ok ());
  (* The same spacing repeated stays legal forever (every window holds
     exactly floor(r*w) = 1). *)
  check_bool "periodic at exactly rate" true
    (RC.check_windowed ~m:1 ~w:3 ~rate (log_of_times 0 [ 1; 4; 7; 10; 13 ])
    = Ok ());
  (* And the boundary violation is reported against the closed window. *)
  match RC.check_windowed ~m:1 ~w:3 ~rate (log_of_times 0 [ 2; 4 ]) with
  | Ok () -> Alcotest.fail "boundary violation missed"
  | Error v ->
      check_int "count over [2,4]" 2 v.RC.count;
      check_int "allowed floor(w*r)" 1 v.RC.allowed;
      check_bool "window is w wide, endpoints inclusive" true
        (v.RC.t2 - v.RC.t1 + 1 = 3)

let burstiness_measure () =
  check_int "legal log has burstiness 0" 0
    (RC.burstiness ~m:1 ~rate:R.half (log_of_times 0 [ 1; 3; 5 ]));
  let b = RC.burstiness ~m:1 ~rate:R.half (log_of_times 0 [ 4; 4; 4 ]) in
  check_int "triple burst needs slack 2" 2 b

let leaky_check () =
  let rate = R.make 1 4 in
  (* Burst of 3 at step 1 then one every 4 steps: legal at b=3, not at b=2. *)
  let times = [ 1; 1; 1; 4; 8; 12 ] in
  check_bool "b=3 accepts" true
    (RC.check_leaky ~m:1 ~b:3 ~rate (log_of_times 0 times) = Ok ());
  (match RC.check_leaky ~m:1 ~b:2 ~rate (log_of_times 0 times) with
  | Ok () -> Alcotest.fail "b=2 must reject"
  | Error v ->
      check_int "burst interval" 1 v.RC.t1;
      check_bool "allowed r*len + b" true (v.RC.allowed >= 2));
  (* b=0 leaky is stricter than the ceil-based rate-r check. *)
  check_bool "single packet at t=1 passes rate-r" true
    (RC.check_rate ~m:1 ~rate (log_of_times 0 [ 1 ]) = Ok ());
  check_bool "but violates b=0 (ceil slack)" true
    (Result.is_error (RC.check_leaky ~m:1 ~b:0 ~rate (log_of_times 0 [ 1 ])));
  Alcotest.check_raises "negative burst"
    (Invalid_argument "Rate_check.check_leaky: negative burst") (fun () ->
      ignore (RC.check_leaky ~m:1 ~b:(-1) ~rate [||]))

let prop_fast_equals_brute =
  QCheck.Test.make ~name:"fast rate checker agrees with brute force"
    ~count:200
    (QCheck.triple
       (QCheck.pair (QCheck.int_range 1 5) (QCheck.int_range 1 8))
       (QCheck.small_list (QCheck.int_range 1 30))
       QCheck.bool)
    (fun ((p, q), times, _) ->
      let rate = R.make (min p q) (max p q) in
      let times = List.sort compare times in
      let log = log_of_times 0 times in
      let fast = RC.check_rate ~m:1 ~rate log in
      let brute = RC.check_rate_brute ~m:1 ~rate log in
      Result.is_ok fast = Result.is_ok brute)

(* Naive windowed check for cross-validation. *)
let windowed_brute ~w ~allowed times =
  let times = Array.of_list times in
  let n = Array.length times in
  let ok = ref true in
  for i = 0 to n - 1 do
    let count = ref 0 in
    for j = 0 to n - 1 do
      if times.(j) > times.(i) - w && times.(j) <= times.(i) then incr count
    done;
    if !count > allowed then ok := false
  done;
  !ok

let prop_windowed_equals_brute =
  QCheck.Test.make ~name:"windowed checker agrees with brute force" ~count:300
    (QCheck.triple
       (QCheck.pair (QCheck.int_range 1 5) (QCheck.int_range 1 8))
       (QCheck.int_range 1 15)
       (QCheck.small_list (QCheck.int_range 1 40)))
    (fun ((p, q), w, times) ->
      let rate = R.make (min p q) (max p q) in
      let times = List.sort compare times in
      let fast =
        RC.check_windowed ~m:1 ~w ~rate (log_of_times 0 times) = Ok ()
      in
      let brute = windowed_brute ~w ~allowed:(R.floor_mul rate w) times in
      fast = brute)

(* ------------------------------------------------------------------ *)
(* Locally bursty (arXiv:2208.09522)                                   *)
(* ------------------------------------------------------------------ *)

module LB = Aqt_adversary.Local_burst

let local_check () =
  let rate = R.half in
  (* sigma_0 = 2: up to floor(len/2) + 2 packets on edge 0 per interval. *)
  check_bool "burst of sigma at t=1 passes" true
    (RC.check_local ~rate ~sigmas:[| 2 |] (log_of_times 0 [ 1; 1 ]) = Ok ());
  check_bool "burst of sigma+1 at t=1 fails" true
    (Result.is_error
       (RC.check_local ~rate ~sigmas:[| 2 |] (log_of_times 0 [ 1; 1; 1 ])));
  (* Per-edge budgets really are per-edge: the same burst is fine on the
     generous edge and a violation on the tight one. *)
  check_bool "tight edge only" true
    (Result.is_error
       (RC.check_local ~rate ~sigmas:[| 0; 5 |] (log_of_times 0 [ 2; 2 ])));
  check_bool "generous edge absorbs it" true
    (RC.check_local ~rate ~sigmas:[| 0; 5 |] (log_of_times 1 [ 2; 2 ]) = Ok ());
  (* sigma = 0 leaves the pure floor bound: rate 1/2 admits a packet only
     every other step. *)
  check_bool "sigma=0 is the bare floor" true
    (Result.is_error
       (RC.check_local ~rate ~sigmas:[| 0 |] (log_of_times 0 [ 1 ])));
  Alcotest.check_raises "negative sigma"
    (Invalid_argument "Rate_check.check_local: negative sigma on edge 1")
    (fun () -> ignore (RC.check_local ~rate ~sigmas:[| 0; -1 |] [||]))

let prop_local_equals_brute =
  QCheck.Test.make ~name:"local checker agrees with brute force" ~count:300
    (QCheck.triple
       (QCheck.pair (QCheck.int_range 1 5) (QCheck.int_range 1 8))
       (QCheck.int_range 0 4)
       (QCheck.small_list (QCheck.int_range 1 40)))
    (fun ((p, q), sigma, times) ->
      let rate = R.make (min p q) (max p q) in
      let times = List.sort compare times in
      let log = log_of_times 0 times in
      let fast = RC.check_local ~rate ~sigmas:[| sigma |] log in
      let brute = RC.check_local_brute ~rate ~sigmas:[| sigma |] log in
      Result.is_ok fast = Result.is_ok brute)

let local_burst_budgets () =
  (* Two flows over edge 1, one over each of 0 and 2: k_max = 2, and the
     per-edge sigmas count (burst + 1) per flow using the edge. *)
  let flows = [ ([| 0; 1 |], 2); ([| 1; 2 |], 0) ] in
  let rate, sigmas = LB.budgets ~m:3 ~flow_rate:(R.make 1 4) flows in
  check_bool "rho = k_max * flow rate" true (R.equal rate R.half);
  check_int "sigma_0" 3 sigmas.(0);
  check_int "sigma_1 sums both flows" 4 sigmas.(1);
  check_int "sigma_2" 1 sigmas.(2);
  Alcotest.check_raises "negative burst"
    (Invalid_argument "Local_burst: negative burst") (fun () ->
      ignore (LB.budgets ~m:1 ~flow_rate:R.half [ ([| 0 |], -1) ]))

let prop_local_burst_is_legal =
  (* Admissibility by construction: whatever the flow layout, the
     adversary's own injection log passes its own derived budget check —
     on every edge, not just the loaded ones. *)
  QCheck.Test.make ~name:"local-burst adversary passes its own check"
    ~count:150
    (QCheck.triple
       (QCheck.pair (QCheck.int_range 2 6) (QCheck.int_range 1 9))
       (QCheck.small_list (QCheck.pair (QCheck.int_range 0 2) QCheck.bool))
       (QCheck.int_range 10 60))
    (fun ((den, seed), bursts, horizon) ->
      let l = B.line 3 in
      let segment i =
        (* deterministic little variety: prefix, suffix or full line *)
        match (seed + i) mod 3 with
        | 0 -> [| l.edges.(0) |]
        | 1 -> [| l.edges.(1); l.edges.(2) |]
        | _ -> l.edges
      in
      let flows = List.mapi (fun i (b, _) -> (segment i, b)) bursts in
      match flows with
      | [] -> true
      | _ ->
          let k = List.length flows in
          let adv =
            LB.make ~m:3 ~flow_rate:(R.make 1 (k * den)) ~flows ~horizon ()
          in
          let net =
            N.create ~log_injections:true ~graph:l.graph
              ~policy:Policies.fifo ()
          in
          let _ = Sim.run ~net ~driver:adv.driver ~horizon:(horizon + 30) () in
          RC.check_local ~rate:adv.rate ~sigmas:adv.sigmas
            (N.injection_log net)
          = Ok ())

(* ------------------------------------------------------------------ *)
(* Feedback-driven routing (arXiv:1812.11113)                          *)
(* ------------------------------------------------------------------ *)

module FB = Aqt_adversary.Feedback

let feedback_assign_water_fills () =
  let pool = [| [| 0 |]; [| 1 |] |] in
  (* Edge 0 backed up: both releases go to edge 1 until the virtual load
     evens out, then they alternate (ties to the lowest index). *)
  check_bool "avoids the loaded edge" true
    (FB.assign ~queues:[| 2; 0 |] ~pool 2 = [ [| 1 |]; [| 1 |] ]);
  check_bool "then alternates on the tie" true
    (FB.assign ~queues:[| 2; 0 |] ~pool 4
    = [ [| 1 |]; [| 1 |]; [| 0 |]; [| 1 |] ]);
  check_bool "tie breaks to lowest index" true
    (FB.assign ~queues:[| 0; 0 |] ~pool 1 = [ [| 0 |] ]);
  check_bool "route cost sums the whole route" true
    (FB.route_cost [| 1; 2; 4 |] [| 0; 2 |] = 5);
  Alcotest.check_raises "empty pool"
    (Invalid_argument "Feedback.assign: empty pool") (fun () ->
      ignore (FB.assign ~queues:[| 0 |] ~pool:[||] 1))

let feedback_truncation_rule () =
  check_bool "hot edge with hops left truncates" true
    (FB.should_truncate ~queues:[| 3 |] ~hot:3 ~edge:0 ~remaining:2);
  check_bool "below threshold keeps route" false
    (FB.should_truncate ~queues:[| 2 |] ~hot:3 ~edge:0 ~remaining:2);
  check_bool "last hop never truncates" false
    (FB.should_truncate ~queues:[| 9 |] ~hot:3 ~edge:0 ~remaining:1)

let feedback_run_is_rate_legal () =
  (* The aggregate-release argument: whatever routes the feedback rule
     picks, the injection log obeys the single declared rate on every
     edge. *)
  let r = B.ring 4 in
  let pool =
    Array.init 4 (fun i -> [| r.edges.(i); r.edges.((i + 1) mod 4) |])
  in
  let adv = FB.make ~rate:(R.make 2 3) ~pool ~hot:2 ~horizon:80 () in
  let net =
    N.create ~log_injections:true ~graph:r.graph ~policy:Policies.fifo ()
  in
  let _ = Sim.run ~net ~driver:adv.driver ~horizon:120 () in
  check_bool "log is rate-legal on all edges" true
    (RC.check_rate ~m:4 ~rate:adv.rate (N.injection_log net) = Ok ());
  check_bool "it actually injected" true (N.injected_count net > 0);
  check_bool "and actually rerouted" true (N.reroute_count net > 0)

let prop_flows_are_rate_legal =
  QCheck.Test.make ~name:"any single flow passes its own rate check"
    ~count:200
    (QCheck.triple
       (QCheck.pair (QCheck.int_range 1 6) (QCheck.int_range 1 9))
       (QCheck.int_range 1 20) (QCheck.int_range 0 40))
    (fun ((p, q), start, len) ->
      let rate = R.make (min p q) (max p q) in
      let f = Flow.make ~route:[| 0 |] ~rate ~start ~stop:(start + len) () in
      let times = ref [] in
      for t = start + len downto start do
        for _ = 1 to Flow.count_at f t do
          times := t :: !times
        done
      done;
      RC.check_rate ~m:1 ~rate (log_of_times 0 !times) = Ok ())

(* ------------------------------------------------------------------ *)
(* Stock adversaries                                                   *)
(* ------------------------------------------------------------------ *)

let run_and_log ?(extra = 50) ~graph ~m (adv : Stock.t) horizon =
  let net =
    N.create ~log_injections:true ~graph ~policy:Policies.fifo ()
  in
  let _ = Sim.run ~net ~driver:adv.driver ~horizon:(horizon + extra) () in
  (net, N.injection_log net, m)

let token_bucket_is_exact () =
  let l = B.line 3 in
  let adv =
    Stock.token_bucket ~rate:(R.make 2 7) ~routes:[ l.edges ] ~horizon:200 ()
  in
  let _, log, m = run_and_log ~graph:l.graph ~m:3 adv 200 in
  check_bool "rate-r legal" true (RC.check_rate ~m ~rate:adv.rate log = Ok ());
  check_int "injected floor(2/7*200)" 57 (Array.length log)

let shared_bucket_overlapping_routes () =
  let l = B.line 4 in
  let routes =
    [ l.edges; Array.sub l.edges 0 2; Array.sub l.edges 1 3 ]
  in
  let adv =
    Stock.shared_token_bucket ~rate:(R.make 1 3) ~routes ~horizon:300 ()
  in
  let _, log, m = run_and_log ~graph:l.graph ~m:4 adv 300 in
  check_bool "aggregate rate legal despite overlap" true
    (RC.check_rate ~m ~rate:adv.rate log = Ok ());
  (* Round-robin: each route gets 1/3 of 100 releases. *)
  check_int "releases" 100 (Array.length log)

let leaky_bucket_adversary_extremal () =
  let l = B.line 2 in
  let b = 5 in
  let rate = R.make 1 3 in
  let adv = Stock.leaky_bucket ~b ~rate ~routes:[ l.edges ] ~horizon:300 () in
  let _, log, m = run_and_log ~graph:l.graph ~m:2 adv 300 in
  check_bool "satisfies (b, r)" true (RC.check_leaky ~m ~b ~rate log = Ok ());
  check_bool "saturates: (b-1, r) violated" true
    (Result.is_error (RC.check_leaky ~m ~b:(b - 1) ~rate log));
  check_int "volume = b + floor(r*300)" (b + 100) (Array.length log)

let windowed_burst_legal () =
  let l = B.line 2 in
  List.iter
    (fun packed ->
      let adv =
        Stock.windowed_burst ~packed ~w:12 ~rate:(R.make 1 4)
          ~routes:[ l.edges ] ~horizon:240 ()
      in
      let _, log, m = run_and_log ~graph:l.graph ~m:2 adv 240 in
      check_bool
        (Printf.sprintf "windowed legal (packed=%b)" packed)
        true
        (RC.check_windowed ~m ~w:12 ~rate:adv.rate log = Ok ());
      check_int "20 windows x 3" 60 (Array.length log))
    [ false; true ]

let bernoulli_roughly_rate () =
  let l = B.line 2 in
  let prng = Aqt_util.Prng.create 7 in
  let adv = Stock.bernoulli ~prng ~rate:(R.make 1 5) ~routes:[ l.edges ] () in
  check_bool "marked inexact" false adv.exact;
  let net = N.create ~graph:l.graph ~policy:Policies.fifo () in
  let _ = Sim.run ~net ~driver:adv.driver ~horizon:5000 () in
  let n = N.injected_count net in
  check_bool "mean near 1000" true (n > 850 && n < 1150)

let replay_reproduces_run () =
  (* Record a run, replay it, and require the identical trajectory. *)
  let l = B.line 3 in
  let adv =
    Stock.token_bucket ~rate:(R.make 1 2) ~routes:[ l.edges ] ~horizon:100 ()
  in
  let net1, log, _ = run_and_log ~graph:l.graph ~m:3 adv 100 in
  let adv2 = Stock.replay ~rate:(R.make 1 2) log in
  let net2 =
    N.create ~log_injections:true ~graph:l.graph ~policy:Policies.fifo ()
  in
  let _ = Sim.run ~net:net2 ~driver:adv2.driver ~horizon:150 () in
  check_int "same absorbed" (N.absorbed net1) (N.absorbed net2);
  check_int "same max queue" (N.max_queue_ever net1) (N.max_queue_ever net2);
  check_int "same max dwell" (N.max_dwell net1) (N.max_dwell net2);
  check_bool "same log" true (N.injection_log net2 = log)

(* ------------------------------------------------------------------ *)
(* Log_io                                                              *)
(* ------------------------------------------------------------------ *)

module Log_io = Aqt_adversary.Log_io

let log_io_roundtrip () =
  let t : Log_io.t =
    {
      meta = [ ("n", "9"); ("rate", "7/10") ];
      initial = [| [| 0 |]; [| 0; 1 |] |];
      log = [| (1, [| 0; 1; 2 |]); (1, [| 2 |]); (5, [| 1 |]) |];
    }
  in
  let t' = Log_io.of_string (Log_io.to_string t) in
  check_bool "meta" true (t'.meta = t.meta);
  check_bool "initial" true (t'.initial = t.initial);
  check_bool "log" true (t'.log = t.log);
  check_bool "meta lookup" true (Log_io.meta_value t' "rate" = Some "7/10");
  check_bool "meta missing" true (Log_io.meta_value t' "q" = None)

let log_io_file_roundtrip () =
  let file = Filename.temp_file "aqt_log" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      let l = B.line 3 in
      let net =
        N.create ~log_injections:true ~graph:l.graph ~policy:Policies.fifo ()
      in
      ignore (N.place_initial net l.edges);
      N.step net [ { route = l.edges; tag = "x" } ];
      N.step net [ { route = Array.sub l.edges 1 2; tag = "y" } ];
      let t = Log_io.of_network ~meta:[ ("kind", "test") ] net in
      Log_io.save file t;
      let t' = Log_io.load file in
      check_bool "file roundtrip" true (t' = t);
      check_int "one initial" 1 (Array.length t'.initial);
      check_int "two injections" 2 (Array.length t'.log))

let log_io_rejects_malformed () =
  let fails s =
    match Log_io.of_string s with
    | exception Failure _ -> true
    | _ -> false
  in
  check_bool "unsorted" true (fails "5 0\n3 0\n");
  check_bool "empty route" true (fails "init\n");
  check_bool "bad time" true (fails "abc 0\n");
  check_bool "late init" true (fails "3 0\ninit 1\n");
  check_bool "late meta" true (fails "init 0\nmeta a b\n");
  check_bool "comments and blanks ok" false (fails "# hi\n\ninit 0\n1 0\n")

(* ------------------------------------------------------------------ *)
(* Phased                                                              *)
(* ------------------------------------------------------------------ *)

let phased_sequence_runs_in_order () =
  let l = B.line 1 in
  let net = N.create ~graph:l.graph ~policy:Policies.fifo () in
  let seen = ref [] in
  let mk_phase name dur : Phased.phase =
   fun _ start ->
    seen := (name, start) :: !seen;
    (Sim.null_driver, dur)
  in
  let driver =
    Phased.sequence [ mk_phase "a" 3; mk_phase "b" 2; mk_phase "c" 4 ]
  in
  let _ = Sim.run ~net ~driver ~horizon:20 () in
  check_bool "phase starts" true
    (List.rev !seen = [ ("a", 1); ("b", 4); ("c", 6) ])

let phased_cycle_repeats () =
  let l = B.line 1 in
  let net = N.create ~graph:l.graph ~policy:Policies.fifo () in
  let cycles = ref [] in
  let phases = [ Phased.idle 3; Phased.idle 2 ] in
  let driver = Phased.cycle ~on_cycle:(fun k t -> cycles := (k, t) :: !cycles) phases in
  let _ = Sim.run ~net ~driver ~horizon:12 () in
  check_bool "cycle starts every 5 steps" true
    (List.rev !cycles = [ (0, 1); (1, 6); (2, 11) ])

let phased_bad_duration () =
  let l = B.line 1 in
  let net = N.create ~graph:l.graph ~policy:Policies.fifo () in
  let driver = Phased.sequence [ (fun _ _ -> (Sim.null_driver, 0)) ] in
  Alcotest.check_raises "zero duration"
    (Invalid_argument "Phased: phase returned non-positive duration")
    (fun () -> ignore (Sim.run ~net ~driver ~horizon:3 ()));
  Alcotest.check_raises "zero duration under run"
    (Invalid_argument "Phased: phase returned non-positive duration")
    (fun () -> ignore (Phased.run net (fun _ _ -> (Sim.null_driver, 0))))

(* [Phased.run] builds each phase at now + 1 and runs exactly its
   duration, so back-to-back runs start where the last one stopped. *)
let phased_run_exact_duration () =
  let l = B.line 2 in
  let net = N.create ~graph:l.graph ~policy:Policies.fifo () in
  let starts = ref [] in
  let phase dur : Phased.phase =
   fun _ start ->
    starts := start :: !starts;
    (Sim.injections_only (fun _ _ -> [ { N.route = l.edges; tag = "x" } ]), dur)
  in
  check_int "first duration" 3 (Phased.run net (phase 3));
  check_int "now after first" 3 (N.now net);
  check_int "second duration" 2 (Phased.run net (phase 2));
  check_int "now after second" 5 (N.now net);
  check_bool "phase starts" true (List.rev !starts = [ 1; 4 ]);
  check_int "one injection per step" 5 (N.injected_count net)

(* ------------------------------------------------------------------ *)
(* scan_edge: the exported potential scan                               *)
(* ------------------------------------------------------------------ *)

let scan_edge_empty_sentinel () =
  (* An idle edge is trivially admissible: the sentinel sits strictly
     below every threshold the callers compare against. *)
  check_bool "sentinel" true (RC.scan_edge ~rate:R.half [||] = (min_int, None))

let scan_edge_single_burst () =
  (* One burst of C at time T: the worst interval is [T,T] and the excess
     is q*C - p, independent of T. *)
  let check_at ~p ~q ~t ~c =
    let excess, witness = RC.scan_edge ~rate:(R.make p q) [| (t, c) |] in
    check_int "excess" ((q * c) - p) excess;
    check_bool "witness" true (witness = Some (t, t, c))
  in
  check_at ~p:1 ~q:2 ~t:4 ~c:3;
  check_at ~p:2 ~q:5 ~t:1 ~c:1;
  check_at ~p:1 ~q:1 ~t:100 ~c:7

let scan_edge_rate_threshold () =
  (* Exactly-rate traffic sits at the q-1 boundary; one extra packet
     crosses it.  (The rate condition on the edge is excess <= q - 1.) *)
  let rate = R.make 1 3 in
  let legal = [| (3, 1); (6, 1); (9, 1) |] in
  let excess, _ = RC.scan_edge ~rate legal in
  check_bool "legal at boundary" true (excess <= 2);
  let burst = [| (3, 1); (4, 1) |] in
  let excess, witness = RC.scan_edge ~rate burst in
  check_bool "burst crosses" true (excess > 2);
  check_bool "burst witness" true (witness = Some (3, 4, 2))

let scan_edge_near_overflow () =
  (* Huge denominator and multiplicities: intermediate products reach
     ~2e17, well inside 63-bit ints but far outside naive 32-bit range. *)
  let q = 1_000_000_000 in
  let c = 100_000_000 in
  let excess, witness =
    RC.scan_edge ~rate:(R.make 1 q) [| (1, c); (2, c) |]
  in
  check_bool "exact excess" true (excess = (q * 2 * c) - 2);
  check_bool "witness spans both" true (witness = Some (1, 2, 2 * c))

let scan_edge_agrees_with_brute () =
  (* Random single-edge logs: the scan's accept/reject decision must match
     the all-intervals brute-force checker. *)
  let prng = Aqt_util.Prng.create 2002 in
  for _ = 1 to 200 do
    let p = 1 + Aqt_util.Prng.int prng 4 in
    let q = p + Aqt_util.Prng.int prng 6 in
    let rate = R.make p q in
    (* Strictly increasing times with random gaps and multiplicities. *)
    let n = 1 + Aqt_util.Prng.int prng 12 in
    let t = ref 0 in
    let events =
      Array.init n (fun _ ->
          t := !t + 1 + Aqt_util.Prng.int prng 4;
          (!t, 1 + Aqt_util.Prng.int prng 3))
    in
    let excess, _ = RC.scan_edge ~rate events in
    let log =
      Array.concat
        (Array.to_list
           (Array.map
              (fun (time, c) -> Array.make c (time, [| 0 |]))
              events))
    in
    let brute_ok = RC.check_rate_brute ~m:1 ~rate log = Ok () in
    check_bool
      (Printf.sprintf "agreement at %d/%d" p q)
      brute_ok
      (excess <= R.den rate - 1)
  done

let scan_edge_rejects_malformed () =
  Alcotest.check_raises "unsorted"
    (Invalid_argument "Rate_check.scan_edge: times must be strictly increasing")
    (fun () -> ignore (RC.scan_edge ~rate:R.half [| (3, 1); (3, 1) |]));
  Alcotest.check_raises "pre-step-1"
    (Invalid_argument "Rate_check.scan_edge: event before step 1")
    (fun () -> ignore (RC.scan_edge ~rate:R.half [| (0, 1) |]));
  Alcotest.check_raises "zero multiplicity"
    (Invalid_argument "Rate_check.scan_edge: multiplicity must be positive")
    (fun () -> ignore (RC.scan_edge ~rate:R.half [| (2, 0) |]))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "aqt_adversary"
    [
      ( "flow",
        [
          Alcotest.test_case "cumulative" `Quick flow_cumulative;
          Alcotest.test_case "count_at sums" `Quick flow_count_at_sums;
          Alcotest.test_case "max_total" `Quick flow_max_total;
          Alcotest.test_case "last injection" `Quick flow_last_injection;
          Alcotest.test_case "rejections" `Quick flow_rejects;
          q prop_flow_prefix_rate;
        ] );
      ( "rate-check",
        [
          Alcotest.test_case "accepts legal" `Quick rate_check_accepts_legal;
          Alcotest.test_case "rejects burst" `Quick rate_check_rejects_burst;
          Alcotest.test_case "interval violation" `Quick rate_check_interval_violation;
          Alcotest.test_case "multi-edge routes" `Quick rate_check_multi_edge_routes;
          Alcotest.test_case "unsorted rejected" `Quick rate_check_unsorted_rejected;
          Alcotest.test_case "windowed" `Quick windowed_check;
          Alcotest.test_case "windowed closed-window boundary" `Quick
            windowed_check_boundary;
          Alcotest.test_case "leaky bucket" `Quick leaky_check;
          Alcotest.test_case "burstiness" `Quick burstiness_measure;
          Alcotest.test_case "scan_edge empty sentinel" `Quick
            scan_edge_empty_sentinel;
          Alcotest.test_case "scan_edge single burst" `Quick
            scan_edge_single_burst;
          Alcotest.test_case "scan_edge rate threshold" `Quick
            scan_edge_rate_threshold;
          Alcotest.test_case "scan_edge near overflow" `Quick
            scan_edge_near_overflow;
          Alcotest.test_case "scan_edge agrees with brute" `Quick
            scan_edge_agrees_with_brute;
          Alcotest.test_case "scan_edge rejects malformed" `Quick
            scan_edge_rejects_malformed;
          q prop_fast_equals_brute;
          q prop_windowed_equals_brute;
          q prop_flows_are_rate_legal;
        ] );
      ( "local-burst",
        [
          Alcotest.test_case "per-edge budgets" `Quick local_check;
          Alcotest.test_case "derived budgets" `Quick local_burst_budgets;
          q prop_local_equals_brute;
          q prop_local_burst_is_legal;
        ] );
      ( "feedback",
        [
          Alcotest.test_case "assign water-fills" `Quick
            feedback_assign_water_fills;
          Alcotest.test_case "truncation rule" `Quick feedback_truncation_rule;
          Alcotest.test_case "run is rate-legal" `Quick
            feedback_run_is_rate_legal;
        ] );
      ( "stock",
        [
          Alcotest.test_case "token bucket exact" `Quick token_bucket_is_exact;
          Alcotest.test_case "shared bucket overlap" `Quick
            shared_bucket_overlapping_routes;
          Alcotest.test_case "windowed burst legal" `Quick windowed_burst_legal;
          Alcotest.test_case "leaky bucket extremal" `Quick
            leaky_bucket_adversary_extremal;
          Alcotest.test_case "bernoulli mean" `Quick bernoulli_roughly_rate;
          Alcotest.test_case "replay reproduces" `Quick replay_reproduces_run;
        ] );
      ( "log-io",
        [
          Alcotest.test_case "string roundtrip" `Quick log_io_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick log_io_file_roundtrip;
          Alcotest.test_case "malformed rejected" `Quick log_io_rejects_malformed;
        ] );
      ( "phased",
        [
          Alcotest.test_case "sequence order" `Quick phased_sequence_runs_in_order;
          Alcotest.test_case "cycle repeats" `Quick phased_cycle_repeats;
          Alcotest.test_case "bad duration" `Quick phased_bad_duration;
          Alcotest.test_case "run exact duration" `Quick phased_run_exact_duration;
        ] );
    ]
