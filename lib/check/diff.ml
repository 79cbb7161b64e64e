module P = Aqt_engine.Packet
module Network = Aqt_engine.Network
module Backend = Aqt_engine.Backend
module Trace = Aqt_engine.Trace
module Digraph = Aqt_graph.Digraph
module Rate_check = Aqt_adversary.Rate_check
module Feedback = Aqt_adversary.Feedback
module Stability = Aqt.Stability
module Capacity = Aqt_capacity.Model

type mutant =
  | Drop_injection of int
  | Flip_tie_order
  | Skip_reroutes
  | Ignore_capacity
  | Violate_local_budget

type failure = { kind : string; step : int option; detail : string }

let pp_failure fmt f =
  match f.step with
  | Some s -> Format.fprintf fmt "[%s @ step %d] %s" f.kind s f.detail
  | None -> Format.fprintf fmt "[%s] %s" f.kind f.detail

exception Fail of failure

let fail kind ?step detail = raise (Fail { kind; step; detail })

(* Everything observable about a buffered packet.  Routes compare by value,
   so reroutes (which install fresh arrays) still compare equal. *)
let print_of_packet (v : Backend.view) =
  Printf.sprintf "#%d inj@%d hop=%d buf@%d route=[%s]" v.v_id v.v_injected_at
    v.v_hop v.v_buffered_at
    (String.concat ";" (List.map string_of_int (Array.to_list v.v_route)))

(* [want] holds the reference's buffers of this step, edge by edge, built
   once and compared against every arm. *)
let compare_buffers ~step refm want arms =
  List.iter
    (fun (arm, b) ->
      Array.iteri
        (fun e want ->
          let got = Backend.buffer_packets b e in
          if want <> got then
            fail "divergence" ~step
              (Printf.sprintf
                 "%s arm, edge %d:\n  reference: %s\n  engine:    %s" arm e
                 (String.concat " | " (List.map print_of_packet want))
                 (String.concat " | " (List.map print_of_packet got))))
        want;
      if Backend.in_flight b <> Ref_model.in_flight refm then
        fail "divergence" ~step
          (Printf.sprintf "%s arm: in_flight %d, reference %d" arm
             (Backend.in_flight b) (Ref_model.in_flight refm));
      if Backend.absorbed b <> Ref_model.absorbed refm then
        fail "divergence" ~step
          (Printf.sprintf "%s arm: absorbed %d, reference %d" arm
             (Backend.absorbed b) (Ref_model.absorbed refm));
      if Backend.dropped b <> Ref_model.dropped refm then
        fail "divergence" ~step
          (Printf.sprintf "%s arm: dropped %d, reference %d" arm
             (Backend.dropped b) (Ref_model.dropped refm)))
    arms

(* Capacity-never-exceeded: after every step, each buffer respects its
   static cap and a shared pool respects its total.  Checked against the
   scenario's model, not the arm's (so the ignore-capacity mutant is caught
   here as soon as it overfills a buffer). *)
let check_capacity ~step (capacity : Capacity.t) arms =
  if not (Capacity.is_unbounded capacity) then
    List.iter
      (fun (arm, b) ->
        let m = Digraph.n_edges (Backend.graph b) in
        let caps = Capacity.caps capacity ~m in
        for e = 0 to m - 1 do
          if Backend.buffer_len b e > caps.(e) then
            fail "capacity-exceeded" ~step
              (Printf.sprintf "%s arm: edge %d holds %d packets, cap %d" arm e
                 (Backend.buffer_len b e) caps.(e))
        done;
        let total = Capacity.shared_total capacity in
        if total <> max_int && Backend.occupancy b > total then
          fail "capacity-exceeded" ~step
            (Printf.sprintf "%s arm: %d packets buffered, shared total %d" arm
               (Backend.occupancy b) total))
      arms

let check_stat ~arm name want got =
  if want <> got then
    fail "stat-divergence"
      (Printf.sprintf "%s arm: %s = %d, reference %d" arm name got want)

let compare_stats refm (arm, b) =
  let m = Digraph.n_edges (Backend.graph b) in
  check_stat ~arm "injected" (Ref_model.injected_count refm)
    (Backend.injected_count b);
  check_stat ~arm "initials" (Ref_model.initial_count refm)
    (Backend.initial_count b);
  check_stat ~arm "max_queue" (Ref_model.max_queue_ever refm)
    (Backend.max_queue_ever b);
  check_stat ~arm "max_dwell" (Ref_model.max_dwell refm) (Backend.max_dwell b);
  check_stat ~arm "max_pending_dwell"
    (Ref_model.max_pending_dwell refm)
    (Backend.max_pending_dwell b);
  check_stat ~arm "latency_max"
    (Ref_model.delivered_latency_max refm)
    (Backend.delivered_latency_max b);
  check_stat ~arm "reroutes" (Ref_model.reroute_count refm)
    (Backend.reroute_count b);
  check_stat ~arm "dropped" (Ref_model.dropped refm) (Backend.dropped b);
  check_stat ~arm "displaced" (Ref_model.displaced refm) (Backend.displaced b);
  check_stat ~arm "peak_occupancy"
    (Ref_model.peak_occupancy refm)
    (Backend.peak_occupancy b);
  if
    Ref_model.delivered_latency_mean refm <> Backend.delivered_latency_mean b
  then
    fail "stat-divergence"
      (Printf.sprintf "%s arm: latency_mean %g, reference %g" arm
         (Backend.delivered_latency_mean b)
         (Ref_model.delivered_latency_mean refm));
  for e = 0 to m - 1 do
    check_stat ~arm
      (Printf.sprintf "max_queue_of_edge %d" e)
      (Ref_model.max_queue_of_edge refm e)
      (Backend.max_queue_of_edge b e);
    check_stat ~arm
      (Printf.sprintf "sent_on_edge %d" e)
      (Ref_model.sent_on_edge refm e)
      (Backend.sent_on_edge b e);
    check_stat ~arm
      (Printf.sprintf "last_injection_on %d" e)
      (Ref_model.last_injection_on refm e)
      (Backend.last_injection_on b e);
    check_stat ~arm
      (Printf.sprintf "dropped_on_edge %d" e)
      (Ref_model.dropped_on_edge refm e)
      (Backend.dropped_on_edge b e)
  done

let compare_logs refm (arm, b) =
  let want = Ref_model.injection_log refm in
  let got = Backend.injection_log b in
  if Array.length want <> Array.length got then
    fail "injection-log"
      (Printf.sprintf "%s arm: %d entries, reference %d" arm
         (Array.length got) (Array.length want));
  Array.iteri
    (fun i (wt, wr) ->
      let gt, gr = got.(i) in
      if wt <> gt || wr <> gr then
        fail "injection-log"
          (Printf.sprintf "%s arm: entry %d is (t=%d, [%s]), reference (t=%d, [%s])"
             arm i gt
             (String.concat ";" (List.map string_of_int (Array.to_list gr)))
             wt
             (String.concat ";" (List.map string_of_int (Array.to_list wr)))))
    want

let check_conservation (arm, b) =
  let made = Backend.initial_count b + Backend.injected_count b in
  let accounted =
    Backend.absorbed b + Backend.in_flight b + Backend.dropped b
  in
  if made <> accounted then
    fail "conservation"
      (Printf.sprintf
         "%s arm: %d packets created but %d accounted for \
          (absorbed + in flight + dropped)"
         arm made accounted)

(* The step's truncation rule, applied identically to the reference and
   (unless the mutant suppresses it) to each engine arm; truncation is
   per-packet, so the application order within an arm does not matter.

   - Default: the deterministic pass of the fast-path tests — every
     buffered packet with [id mod 5 = 2] and more than one remaining hop
     gets its route truncated at the current edge.
   - Feedback routing: each arm observes its OWN start-of-step queue
     vector [queues] and re-derives the truncation with the pure
     [Feedback] rule.  If any arm's queues have drifted, its choices
     drift, and the buffer compare reports the divergence the same
     step. *)
let truncate_rule (scenario : Gen.scenario) ~queues =
  match scenario.feedback with
  | None -> fun ~id ~edge:_ ~remaining -> id mod 5 = 2 && remaining > 1
  | Some { Gen.hot; _ } ->
      fun ~id:_ ~edge ~remaining ->
        Feedback.should_truncate ~queues ~hot ~edge ~remaining

let reroute_ref refm rule =
  let victims = ref [] in
  Ref_model.iter_buffered
    (fun p ->
      if rule ~id:p.P.id ~edge:(P.current_edge p) ~remaining:(P.remaining p)
      then victims := p :: !victims)
    refm;
  List.iter (fun p -> Ref_model.reroute refm p [||]) !victims

(* Replace the placeholder routes of a feedback step with the greedy
   water-filling assignment derived from [qs].  A no-op on every other
   family. *)
let assign_feedback (scenario : Gen.scenario) qs injs =
  match scenario.Gen.feedback with
  | None -> injs
  | Some fb ->
      List.map2
        (fun (inj : Backend.injection) route -> { inj with route })
        injs
        (Feedback.assign ~queues:qs ~pool:fb.Gen.pool (List.length injs))

(* Trace-level invariants: at most [speedup] forwards per (step, edge), and
   each step's forwarded-edge multiset equals the reference model's — the
   engine is greedy and never idles a backlogged link.  The sorted lists
   compare as multisets, so a speedup-s edge appearing s times on both
   sides matches. *)
let check_trace_invariants ~speedup tr ref_forwards =
  let by_step = Hashtbl.create 64 in
  Array.iter
    (function
      | Trace.Forwarded { t; edge; _ } ->
          let prev = try Hashtbl.find by_step t with Not_found -> [] in
          let uses = List.length (List.filter (Int.equal edge) prev) in
          if uses >= speedup then
            fail "trace-invariant" ~step:t
              (Printf.sprintf
                 "edge %d forwarded %d times in step %d (speedup %d)" edge
                 (uses + 1) t speedup);
          Hashtbl.replace by_step t (edge :: prev)
      | _ -> ())
    (Trace.events tr);
  Array.iteri
    (fun i expected ->
      let t = i + 1 in
      let got =
        List.sort Int.compare
          (try Hashtbl.find by_step t with Not_found -> [])
      in
      let want = List.sort Int.compare expected in
      if want <> got then
        fail "trace-invariant" ~step:t
          (Printf.sprintf
             "step %d forwarded edges {%s}, nonempty buffers were {%s}" t
             (String.concat "," (List.map string_of_int got))
             (String.concat "," (List.map string_of_int want))))
    ref_forwards

let check_obligations (scenario : Gen.scenario) fast =
  let log = Backend.injection_log fast in
  let m = Digraph.n_edges scenario.Gen.graph in
  let certify kind = function
    | Ok () -> ()
    | Error v -> fail kind (Format.asprintf "%a" Rate_check.pp_violation v)
  in
  List.iter
    (function
  | Gen.Rate_ok rate -> certify "rate" (Rate_check.check_rate ~m ~rate log)
  | Gen.Windowed_ok { w; rate } ->
      certify "windowed" (Rate_check.check_windowed ~m ~w ~rate log)
  | Gen.Leaky_ok { b; rate } ->
      certify "leaky" (Rate_check.check_leaky ~m ~b ~rate log)
  | Gen.Local_ok { rate; sigmas } ->
      certify "local" (Rate_check.check_local ~rate ~sigmas log)
  | Gen.Routes_valid ->
      Array.iter
        (fun (t, route) ->
          if not (Digraph.route_is_simple scenario.Gen.graph route) then
            fail "routes" ~step:t
              (Printf.sprintf "injected route [%s] is not a simple path"
                 (String.concat ";"
                    (List.map string_of_int (Array.to_list route)))))
        log
  | Gen.Drop_accounting ->
      let per_edge = ref 0 in
      for e = 0 to m - 1 do
        per_edge := !per_edge + Backend.dropped_on_edge fast e
      done;
      let dropped = Backend.dropped fast in
      if !per_edge <> dropped then
        fail "drops"
          (Printf.sprintf "per-edge drops sum to %d but %d dropped" !per_edge
             dropped);
      if Backend.displaced fast > dropped then
        fail "drops"
          (Printf.sprintf "%d displaced exceeds %d dropped"
             (Backend.displaced fast) dropped);
      if Capacity.is_unbounded scenario.Gen.capacity && dropped <> 0 then
        fail "drops"
          (Printf.sprintf "unbounded buffers dropped %d packets" dropped)
  | Gen.Dwell_bound { w; rate; d } -> (
      let time_priority =
        scenario.policy.Aqt_engine.Policy_type.time_priority
      in
      match Stability.dwell_bound ~rate ~w ~d ~time_priority with
      | Some bound
        when Backend.max_dwell fast > bound
             || Backend.max_pending_dwell fast > bound ->
          fail "dwell"
            (Printf.sprintf
               "dwell bound %d exceeded: max completed %d, max pending %d"
               bound (Backend.max_dwell fast)
               (Backend.max_pending_dwell fast))
      | _ -> ()))
    scenario.obligations

(* The budget-violation mutant corrupts the SCHEDULE itself — identically
   for every arm — by replaying one injection [sigma_e + 1] extra times in
   its step, blowing the per-edge budget on that route's first edge.  No
   arm diverges from any other, so the differential layer is blind to it by
   construction: only the [Local_ok] admissibility obligation can catch it.
   Scenarios without that obligation are immune (the mutant is a no-op). *)
let violate_local (scenario : Gen.scenario) =
  let sigmas =
    List.find_map
      (function
        | Gen.Local_ok { rate = _; sigmas } -> Some sigmas
        | _ -> None)
      scenario.Gen.obligations
  in
  match sigmas with
  | None -> scenario.Gen.schedule
  | Some sigmas ->
      let schedule = Array.copy scenario.Gen.schedule in
      let idx = ref (-1) in
      Array.iteri
        (fun i injs -> if !idx < 0 && injs <> [] then idx := i)
        schedule;
      (if !idx >= 0 then
         match schedule.(!idx) with
         | [] -> ()
         | (inj : Backend.injection) :: _ ->
             let e0 = inj.route.(0) in
             let extra = List.init (sigmas.(e0) + 1) (fun _ -> inj) in
             schedule.(!idx) <- extra @ schedule.(!idx));
      schedule

let run ?mutant ?(soa_domains = []) (scenario : Gen.scenario) =
  let engine_tie =
    match mutant with
    | Some Flip_tie_order -> (
        match scenario.tie_order with
        | Network.Transit_first -> Network.Injection_first
        | Network.Injection_first -> Network.Transit_first)
    | _ -> scenario.tie_order
  in
  let engine_reroutes =
    scenario.reroutes && mutant <> Some Skip_reroutes
  in
  let engine_capacity =
    if mutant = Some Ignore_capacity then Capacity.unbounded
    else scenario.capacity
  in
  let schedule =
    if mutant = Some Violate_local_budget then violate_local scenario
    else scenario.schedule
  in
  let refm =
    Ref_model.create ~tie_order:scenario.tie_order
      ~capacity:scenario.capacity ~graph:scenario.graph
      ~policy:scenario.policy ()
  in
  let engine backend =
    Backend.create ~log_injections:true ~tie_order:engine_tie
      ~capacity:engine_capacity ~backend ~graph:scenario.graph
      ~policy:scenario.policy ()
  in
  (* The engine arms, all held to the oracle buffer-for-buffer each step:
     the record engine on its zero-allocation fast path, the record engine
     with a trace collector attached (the traced and untraced step loops
     are distinct code paths), and one struct-of-arrays arm per requested
     domain count. *)
  let fast = engine `Record in
  let tr = Trace.create () in
  let traced =
    Backend.Record
      (Network.create ~log_injections:true ~tie_order:engine_tie
         ~tracer:(Trace.handler tr) ~capacity:engine_capacity
         ~graph:scenario.graph ~policy:scenario.policy ())
  in
  let arms =
    ("fast", fast) :: ("traced", traced)
    :: List.map
         (fun d ->
           let b = engine (`Soa d) in
           (Backend.kind b, b))
         soa_domains
  in
  let finally () = List.iter (fun (_, b) -> Backend.shutdown b) arms in
  Fun.protect ~finally @@ fun () ->
  try
    List.iter
      (fun route ->
        ignore (Ref_model.place_initial refm route);
        List.iter (fun (_, b) -> ignore (Backend.place_initial b route)) arms)
      scenario.initial;
    let horizon = Gen.horizon scenario in
    let ref_forwards = Array.make horizon [] in
    let injections_seen = ref 0 in
    let m = Digraph.n_edges scenario.graph in
    (* Each side's queue snapshot, taken BEFORE the reroute pass: this is
       the state the feedback adversary observes, and truncation must not
       retroactively change what it saw. *)
    let queues buffer_len =
      if scenario.feedback = None then [||] else Array.init m buffer_len
    in
    for i = 0 to horizon - 1 do
      let step = i + 1 in
      let qs_ref = queues (Ref_model.buffer_len refm) in
      if scenario.reroutes then
        reroute_ref refm (truncate_rule scenario ~queues:qs_ref);
      let injs = schedule.(i) in
      let forwards =
        Ref_model.step refm (assign_feedback scenario qs_ref injs)
      in
      ref_forwards.(i) <- List.map fst forwards;
      let engine_injs =
        match mutant with
        | Some (Drop_injection k) ->
            List.filter
              (fun _ ->
                let n = !injections_seen in
                incr injections_seen;
                n <> k)
              injs
        | _ -> injs
      in
      List.iter
        (fun (_, b) ->
          let qs = queues (Backend.buffer_len b) in
          if engine_reroutes then
            Backend.reroute_where b (truncate_rule scenario ~queues:qs) [||];
          Backend.step b (assign_feedback scenario qs engine_injs))
        arms;
      let want =
        Array.init m (fun e ->
            List.map Backend.view_of_packet (Ref_model.buffer_packets refm e))
      in
      compare_buffers ~step refm want arms;
      check_capacity ~step scenario.capacity arms
    done;
    List.iter (compare_stats refm) arms;
    List.iter (compare_logs refm) arms;
    List.iter check_conservation arms;
    check_trace_invariants
      ~speedup:(Capacity.speedup scenario.capacity)
      tr ref_forwards;
    if Trace.count_dropped tr <> Ref_model.dropped refm then
      fail "trace-invariant"
        (Printf.sprintf "traced arm emitted %d drop events, reference %d"
           (Trace.count_dropped tr) (Ref_model.dropped refm));
    check_obligations scenario fast;
    None
  with Fail f -> Some f
