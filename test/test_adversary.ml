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

(* [Flow.injections_at] against its former definition, which built one
   record per packet through intermediate lists. *)
let injections_oracle flows t =
  List.concat_map
    (fun f ->
      List.init (Flow.count_at f t) (fun _ : Aqt_engine.Network.injection ->
          { route = Flow.route f; tag = Flow.tag f }))
    flows

let prop_injections_at_oracle =
  QCheck.Test.make ~name:"injections_at equals the concat_map definition"
    ~count:300
    (QCheck.pair
       (QCheck.list_of_size (QCheck.Gen.int_range 0 6)
          (QCheck.quad
             (QCheck.pair (QCheck.int_range 1 6) (QCheck.int_range 1 6))
             (QCheck.int_range 1 30) (QCheck.int_range 0 30)
             (QCheck.option (QCheck.int_range 0 8))))
       (QCheck.int_range 0 70))
    (fun (specs, t) ->
      let flows =
        List.mapi
          (fun i ((p, q), start, len, max_total) ->
            Flow.make ~tag:(Printf.sprintf "f%d" i) ?max_total
              ~route:(Array.init (1 + (i mod 3)) (fun j -> i + j))
              ~rate:(R.make (min p q) (max p q))
              ~start ~stop:(start + len) ())
          specs
      in
      Flow.injections_at flows t = injections_oracle flows t)

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
  check_bool "time 0" true (fails "0 1 2\n");
  check_bool "negative time" true (fails "-3 0\n");
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

(* ------------------------------------------------------------------ *)
(* One-pass scan vs the two-stage reference                             *)
(* ------------------------------------------------------------------ *)

let rate_check_reports_largest_excess () =
  (* The witness is the interval of largest excess q*count - p*len on the
     smallest violating edge, not the earliest violation: [3,3] already
     breaks rate 1/2 (2 > 1), but [10,10] exceeds it by more. *)
  match
    RC.check_rate ~m:1 ~rate:R.half (log_of_times 0 [ 3; 3; 10; 10; 10 ])
  with
  | Ok () -> Alcotest.fail "both bursts violate rate 1/2"
  | Error v ->
      check_int "edge" 0 v.RC.edge;
      check_int "t1" 10 v.RC.t1;
      check_int "t2" 10 v.RC.t2;
      check_int "count" 3 v.RC.count;
      check_int "allowed" 1 v.RC.allowed

(* The earlier two-stage implementation, kept verbatim as an oracle: the log
   is first split into per-edge (time, multiplicity) lists, then each list
   is scanned on its own. *)
module Two_stage = struct
  module Dyn = Aqt_util.Dynarray_compat

  let bucketize ~m log =
    let buckets = Array.init m (fun _ -> Dyn.create ()) in
    let prev_time = ref min_int in
    Array.iter
      (fun (t, route) ->
        if t < !prev_time then
          invalid_arg "Rate_check: log not sorted by injection time";
        if t < 1 then invalid_arg "Rate_check: injection before step 1";
        prev_time := t;
        Array.iter
          (fun e ->
            if e < 0 || e >= m then invalid_arg "Rate_check: edge out of range";
            let b = buckets.(e) in
            if (not (Dyn.is_empty b)) && fst (Dyn.last b) = t then begin
              let _, c = Dyn.last b in
              Dyn.set b (Dyn.length b - 1) (t, c + 1)
            end
            else Dyn.push b (t, 1))
          route)
      log;
    buckets

  let scan_events ~p ~q events =
    let s = ref 0 in
    let min_d = ref 0 and min_t = ref 0 and min_s = ref 0 in
    let worst = ref min_int in
    let witness = ref None in
    Dyn.iter
      (fun (t, c) ->
        let candidate = (q * !s) - (p * (t - 1)) in
        if candidate < !min_d then begin
          min_d := candidate;
          min_t := t - 1;
          min_s := !s
        end;
        s := !s + c;
        let d = (q * !s) - (p * t) in
        let excess = d - !min_d in
        if excess > !worst then begin
          worst := excess;
          witness := Some (!min_t + 1, t, !s - !min_s)
        end)
      events;
    (!worst, !witness)

  (* The first edge whose scan exceeds [threshold e], as a violation. *)
  let first ~m ~rate ~threshold ~allowed log =
    let p = R.num rate and q = R.den rate in
    let buckets = bucketize ~m log in
    let result = ref (Ok ()) in
    (try
       for e = 0 to m - 1 do
         let worst, witness = scan_events ~p ~q buckets.(e) in
         if worst > threshold q e then
           match witness with
           | Some (t1, t2, count) ->
               result :=
                 Error
                   {
                     RC.edge = e;
                     t1;
                     t2;
                     count;
                     allowed = allowed e (t2 - t1 + 1);
                   };
               raise Exit
           | None -> assert false
       done
     with Exit -> ());
    !result

  let check_rate ~m ~rate log =
    first ~m ~rate
      ~threshold:(fun q _ -> q - 1)
      ~allowed:(fun _ len -> R.ceil_mul rate len)
      log

  let check_leaky ~m ~b ~rate log =
    if b < 0 then invalid_arg "Rate_check.check_leaky: negative burst";
    first ~m ~rate
      ~threshold:(fun q _ -> q * b)
      ~allowed:(fun _ len -> R.floor_mul rate len + b)
      log

  let check_local ~rate ~sigmas log =
    Array.iteri
      (fun e s ->
        if s < 0 then
          invalid_arg
            (Printf.sprintf "Rate_check.check_local: negative sigma on edge %d"
               e))
      sigmas;
    first ~m:(Array.length sigmas) ~rate
      ~threshold:(fun q e -> q * sigmas.(e))
      ~allowed:(fun e len -> R.floor_mul rate len + sigmas.(e))
      log

  let burstiness ~m ~rate log =
    let p = R.num rate and q = R.den rate in
    let buckets = bucketize ~m log in
    let worst = ref 0 in
    for e = 0 to m - 1 do
      let excess, _ = scan_events ~p ~q buckets.(e) in
      if excess > q - 1 then begin
        let need = (excess - (q - 1) + q - 1) / q in
        if need > !worst then worst := need
      end
    done;
    !worst

  let scan_edge ~rate events =
    let p = R.num rate and q = R.den rate in
    let dyn = Dyn.create () in
    let prev = ref min_int in
    Array.iter
      (fun ((t, c) as ev) ->
        if t <= !prev then
          invalid_arg "Rate_check.scan_edge: times must be strictly increasing";
        if t < 1 then invalid_arg "Rate_check.scan_edge: event before step 1";
        if c < 1 then
          invalid_arg "Rate_check.scan_edge: multiplicity must be positive";
        prev := t;
        Dyn.push dyn ev)
      events;
    scan_events ~p ~q dyn

  let check_windowed ~m ~w ~rate log =
    if w < 1 then invalid_arg "Rate_check.check_windowed: w must be positive";
    let allowed = R.floor_mul rate w in
    let buckets = bucketize ~m log in
    let result = ref (Ok ()) in
    (try
       for e = 0 to m - 1 do
         let events = Dyn.to_array buckets.(e) in
         let n = Array.length events in
         let i = ref 0 and sum = ref 0 in
         for j = 0 to n - 1 do
           sum := !sum + snd events.(j);
           let t2 = fst events.(j) in
           while fst events.(!i) <= t2 - w do
             sum := !sum - snd events.(!i);
             incr i
           done;
           if !sum > allowed && !result = Ok () then
             result :=
               Error
                 { RC.edge = e; t1 = t2 - w + 1; t2; count = !sum; allowed }
         done;
         if !result <> Ok () then raise Exit
       done
     with Exit -> ());
    !result

  (* All intervals against [allowed e len]; the first violation in (edge,
     t1, t2) order. *)
  let brute ~m ~allowed log =
    let buckets = bucketize ~m log in
    let result = ref (Ok ()) in
    (try
       for e = 0 to m - 1 do
         let events = Dyn.to_array buckets.(e) in
         let n = Array.length events in
         for i = 0 to n - 1 do
           let count = ref 0 in
           for j = i to n - 1 do
             let t1 = fst events.(i) and t2 = fst events.(j) in
             count := !count + snd events.(j);
             let allowed = allowed e (t2 - t1 + 1) in
             if !count > allowed && !result = Ok () then
               result := Error { RC.edge = e; t1; t2; count = !count; allowed }
           done
         done;
         if !result <> Ok () then raise Exit
       done
     with Exit -> ());
    !result
end

(* Random multi-edge logs: up to five edges, random simple routes (distinct
   edges in random order), steps that repeat so edges see same-step
   multiplicities.  With [malformed], one log in four is broken one of the
   three ways the checkers reject: out of order, before step 1, or an edge
   out of range. *)
type log_case = {
  m : int;
  p : int;
  q : int;
  slack : int array;  (** per-edge sigma; its first entry doubles as b *)
  log : (int * int array) array;
}

let gen_log_case ~malformed =
  let open QCheck.Gen in
  let* m = int_range 1 5 in
  let* q = int_range 1 8 in
  let* p = int_range 1 q in
  let* slack = array_size (return m) (int_range 0 3) in
  let* n = int_range 0 30 in
  let* start = int_range 1 3 in
  let* gaps = list_repeat n (frequency [ (3, return 0); (4, int_range 1 3) ]) in
  let* routes =
    list_repeat n
      (let* len = int_range 1 m in
       let+ perm = shuffle_l (List.init m Fun.id) in
       Array.sub (Array.of_list perm) 0 len)
  in
  let times =
    List.rev
      (snd
         (List.fold_left
            (fun (t, acc) gap -> (t + gap, (t + gap) :: acc))
            (start, []) gaps))
  in
  let log = Array.of_list (List.combine times routes) in
  let* broken = if malformed then int_range 0 3 else return 1 in
  let+ log =
    if broken <> 0 || n = 0 then return log
    else
      let* i = int_range 0 (n - 1) in
      let* how = int_range 0 3 in
      let log = Array.copy log in
      let t, route = log.(i) in
      (match how with
      | 0 -> log.(i) <- (t - 4, route)
      | 1 -> log.(i) <- (0, route)
      | 2 -> log.(i) <- (t, Array.append route [| m |])
      | _ -> log.(i) <- (t, Array.append [| -1 |] route));
      return log
  in
  { m; p; q; slack; log }

let print_log_case c =
  Printf.sprintf "m=%d rate=%d/%d slack=[%s] log=[%s]" c.m c.p c.q
    (String.concat ";" (Array.to_list (Array.map string_of_int c.slack)))
    (String.concat "; "
       (Array.to_list
          (Array.map
             (fun (t, r) ->
               Printf.sprintf "%d:%s" t
                 (String.concat "," (Array.to_list (Array.map string_of_int r))))
             c.log)))

let arb_log_case ~malformed =
  QCheck.make ~print:print_log_case (gen_log_case ~malformed)

(* A result or the message it was rejected with. *)
let attempt f = try Ok (f ()) with Invalid_argument msg -> Error msg

let prop_one_pass_equals_two_stage =
  QCheck.Test.make ~count:500
    ~name:"one-pass checkers return what the two-stage code returns"
    (arb_log_case ~malformed:true) (fun c ->
      let rate = R.make c.p c.q and m = c.m and log = c.log in
      let b = c.slack.(0) and sigmas = c.slack in
      let same name f g =
        if attempt f <> attempt g then
          QCheck.Test.fail_reportf "%s differs from the two-stage code" name
      in
      same "check_rate"
        (fun () -> RC.check_rate ~m ~rate log)
        (fun () -> Two_stage.check_rate ~m ~rate log);
      same "check_leaky"
        (fun () -> RC.check_leaky ~m ~b ~rate log)
        (fun () -> Two_stage.check_leaky ~m ~b ~rate log);
      same "check_local"
        (fun () -> RC.check_local ~rate ~sigmas log)
        (fun () -> Two_stage.check_local ~rate ~sigmas log);
      same "check_windowed"
        (fun () -> RC.check_windowed ~m ~w:(1 + b) ~rate log)
        (fun () -> Two_stage.check_windowed ~m ~w:(1 + b) ~rate log);
      same "check_rate_brute"
        (fun () -> RC.check_rate_brute ~m ~rate log)
        (fun () ->
          Two_stage.brute ~m ~allowed:(fun _ len -> R.ceil_mul rate len) log);
      same "check_local_brute"
        (fun () -> RC.check_local_brute ~rate ~sigmas log)
        (fun () ->
          Two_stage.brute ~m
            ~allowed:(fun e len -> R.floor_mul rate len + sigmas.(e))
            log);
      if attempt (fun () -> RC.burstiness ~m ~rate log)
         <> attempt (fun () -> Two_stage.burstiness ~m ~rate log)
      then QCheck.Test.fail_report "burstiness differs from the two-stage code";
      true)

let prop_scan_edge_equals_two_stage =
  QCheck.Test.make ~count:500
    ~name:"scan_edge returns what the two-stage scan returns"
    QCheck.(
      make
        ~print:
          Print.(
            pair (pair int int)
              (array (pair int int)))
        Gen.(
          pair
            (let* q = int_range 1 8 in
             let+ p = int_range 1 q in
             (p, q))
            (array_size (int_range 0 12)
               (pair (int_range (-1) 30) (int_range 0 4)))))
    (fun ((p, q), events) ->
      (* Mostly well-formed: sort by time, then keep any duplicate times,
         zero multiplicities and pre-step-1 times as they fall. *)
      let events = Array.copy events in
      Array.sort compare events;
      let rate = R.make p q in
      attempt (fun () -> RC.scan_edge ~rate events)
      = attempt (fun () -> Two_stage.scan_edge ~rate events))

(* The generated logs reach every outcome the properties compare: each of
   the three rejections, legal logs, and logs where two or more edges break
   the rate (so reporting the wrong edge shows). *)
let log_cases_are_not_vacuous () =
  let st = Random.State.make [| 18 |] in
  let rejected = Hashtbl.create 3 and legal = ref 0 and multi = ref 0 in
  for _ = 1 to 500 do
    let c = gen_log_case ~malformed:true st in
    let rate = R.make c.p c.q in
    match attempt (fun () -> Two_stage.bucketize ~m:c.m c.log) with
    | Error msg -> Hashtbl.replace rejected msg ()
    | Ok buckets ->
        let over =
          Array.fold_left
            (fun n events ->
              let excess, _ = Two_stage.scan_events ~p:c.p ~q:c.q events in
              if excess > c.q - 1 then n + 1 else n)
            0 buckets
        in
        if over = 0 && RC.check_rate ~m:c.m ~rate c.log = Ok () then
          incr legal;
        if over >= 2 then incr multi
  done;
  check_int "all three rejections" 3 (Hashtbl.length rejected);
  check_bool "legal logs" true (!legal > 20);
  check_bool "logs with two violating edges" true (!multi > 20)

let prop_verdicts_match_brute =
  QCheck.Test.make ~count:500 ~name:"one-pass verdicts match the brute oracle"
    (arb_log_case ~malformed:false) (fun c ->
      let rate = R.make c.p c.q and m = c.m and log = c.log in
      let b = c.slack.(0) and sigmas = c.slack in
      let agree fast brute = Result.is_ok fast = Result.is_ok brute in
      agree (RC.check_rate ~m ~rate log) (RC.check_rate_brute ~m ~rate log)
      && agree
           (RC.check_local ~rate ~sigmas log)
           (RC.check_local_brute ~rate ~sigmas log)
      && agree
           (RC.check_leaky ~m ~b ~rate log)
           (RC.check_local_brute ~rate ~sigmas:(Array.make m b) log))

let prop_burstiness_is_minimal =
  QCheck.Test.make ~count:500
    ~name:"burstiness is the least slack over ceil(r*len)"
    (arb_log_case ~malformed:false) (fun c ->
      let rate = R.make c.p c.q and m = c.m and log = c.log in
      let b = RC.burstiness ~m ~rate log in
      let passes b =
        Two_stage.brute ~m ~allowed:(fun _ len -> R.ceil_mul rate len + b) log
        = Ok ()
      in
      passes b && (b = 0 || not (passes (b - 1))))

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
          q prop_injections_at_oracle;
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
          Alcotest.test_case "reports the largest excess" `Quick
            rate_check_reports_largest_excess;
          Alcotest.test_case "generated logs not vacuous" `Quick
            log_cases_are_not_vacuous;
          q prop_one_pass_equals_two_stage;
          q prop_scan_edge_equals_two_stage;
          q prop_verdicts_match_brute;
          q prop_burstiness_is_minimal;
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
