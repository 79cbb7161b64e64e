(* Tests for the fluid-limit model of the pump (Claims 3.8-3.12) and its
   agreement with the discrete simulator. *)

module R = Aqt_util.Ratio
module N = Aqt_engine.Network
module Sim = Aqt_engine.Sim
module Phased = Aqt_adversary.Phased
module G = Aqt.Gadget
module F = Aqt.Fluid
module Policies = Aqt_policy.Policies

let check_bool = Alcotest.(check bool)
let near ?(tol = 1e-6) a b = abs_float (a -. b) < tol

(* S = 1500 exceeds the Appendix S0 (~1154 at r = 0.7, n = 9), which
   Claim 3.11's Q_n >= n requires. *)
let profile () = F.pump_profile ~r:0.7 ~n:9 ~total_old:3000

(* Internal consistency: endpoints of the piecewise trajectory equal the
   closed forms used in the paper. *)
let piecewise_endpoints () =
  let p = profile () in
  for i = 1 to p.n do
    let idx = i - 1 in
    check_bool "zero before i" true (near (F.queue_at p ~i ~t:(float_of_int i)) 0.0);
    check_bool "peak at i + t_i" true
      (near
         (F.queue_at p ~i ~t:p.peak_time.(idx))
         p.peak_queue.(idx));
    check_bool "final at 2S+i" true
      (near ~tol:1e-6
         (F.queue_at p ~i ~t:(float_of_int (p.total_old + i)))
         p.final_old.(idx));
    (* Fully drained well after the phase. *)
    check_bool "eventually empty" true
      (near (F.queue_at p ~i ~t:1.0e9) 0.0)
  done

let claim_3_10_consistency () =
  let p = profile () in
  (* S' + crossed = 2S: every old packet either waits in the e'-path or has
     crossed the egress. *)
  check_bool "conservation" true
    (near (p.s' +. p.crossed_egress) (float_of_int p.total_old));
  (* Claim 3.11's requirement Q_n >= n under the S0 bound. *)
  check_bool "Q_n >= n" true (p.final_old.(p.n - 1) >= float_of_int p.n)

let arrivals_monotone_capped () =
  let p = profile () in
  for i = 1 to p.n do
    let prev = ref 0.0 in
    for t = 0 to p.total_old + p.n + 100 do
      let a = F.arrivals_at p ~i ~t:(float_of_int t) in
      if a < !prev -. 1e-9 then Alcotest.fail "arrivals must be monotone";
      prev := a
    done;
    check_bool "cap 2S * R_i" true
      (near !prev (float_of_int p.total_old *. p.ri.(i - 1)))
  done

let matches_params_s' () =
  let p = profile () in
  let s'_params = Aqt.Params.s' ~r:0.7 ~n:9 ~total_old:3000 in
  check_bool "same S' as Params" true (abs_float (p.s' -. float_of_int s'_params) < 1.0)

(* Simulation agreement: peaks and finals within a small additive band. *)
let agrees_with_simulation () =
  let eps = R.make 1 5 in
  let params = Aqt.Params.make ~eps ~s0:500 () in
  let seed = (2 * params.s0) + 2 in
  let g = G.cyclic ~n:params.n ~m:3 () in
  let net = N.create ~graph:g.graph ~policy:Policies.fifo () in
  G.seed g net seed;
  ignore (Phased.run net (Aqt.Startup.phase ~params ~gadget:g));
  let m1 = Aqt.Invariant.measure net g ~k:1 in
  let total_old = m1.s_epath + m1.s_ingress in
  let fluid = F.pump_profile ~r:params.r ~n:params.n ~total_old in
  (* Run the pump, tracking the max and the 2S+i snapshot per e'_i buffer. *)
  let n = params.n in
  let peaks = Array.make n 0 and finals = Array.make n 0 in
  let phase = Aqt.Pump.phase ~params ~gadget:g ~k:1 in
  let start = N.now net + 1 in
  let pump_driver, duration = phase net start in
  for step = 1 to duration do
    let t = N.now net + 1 in
    pump_driver.Sim.before_step net t;
    N.step net (pump_driver.Sim.injections_at net t);
    for i = 1 to n do
      let q = N.buffer_len net g.G.e.(1).(i - 1) in
      if q > peaks.(i - 1) then peaks.(i - 1) <- q;
      if step = total_old + i then finals.(i - 1) <- q
    done
  done;
  let tol = float_of_int (4 * n) in
  for i = 1 to n do
    if abs_float (float_of_int peaks.(i - 1) -. fluid.peak_queue.(i - 1)) > tol
    then
      Alcotest.failf "peak at e'_%d: fluid %.0f vs sim %d" i
        fluid.peak_queue.(i - 1)
        peaks.(i - 1);
    if abs_float (float_of_int finals.(i - 1) -. fluid.final_old.(i - 1)) > tol
    then
      Alcotest.failf "final at e'_%d: fluid %.0f vs sim %d" i
        fluid.final_old.(i - 1)
        finals.(i - 1)
  done

let () =
  Alcotest.run "aqt_fluid"
    [
      ( "model",
        [
          Alcotest.test_case "piecewise endpoints" `Quick piecewise_endpoints;
          Alcotest.test_case "claim 3.10 conservation" `Quick
            claim_3_10_consistency;
          Alcotest.test_case "arrivals monotone/capped" `Quick
            arrivals_monotone_capped;
          Alcotest.test_case "matches Params.s'" `Quick matches_params_s';
        ] );
      ( "vs-simulation",
        [ Alcotest.test_case "trajectory agreement" `Slow agrees_with_simulation ]
      );
    ]
