(* Tests for the capacity model: bounded buffers, drop disciplines, the
   Dynamic-Threshold shared pool, and link speedup — both the pure
   Aqt_capacity layer and its enforcement inside the engine. *)

module B = Aqt_graph.Build
module N = Aqt_engine.Network
module Buffer_q = Aqt_engine.Buffer_q
module Packet = Aqt_engine.Packet
module Sim = Aqt_engine.Sim
module Policies = Aqt_policy.Policies
module Capacity = Aqt_capacity.Model
module Tradeoff = Aqt_capacity.Tradeoff
module Prng = Aqt_util.Prng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let inj route : N.injection = { route; tag = "t" }

(* ------------------------------------------------------------------ *)
(* Model layer                                                         *)
(* ------------------------------------------------------------------ *)

let model_basics () =
  check_bool "unbounded" true (Capacity.is_unbounded Capacity.unbounded);
  check_bool "trivial" true (Capacity.is_trivial Capacity.unbounded);
  check_bool "speedup not trivial" false
    (Capacity.is_trivial (Capacity.make ~speedup:2 Capacity.Unbounded));
  let u = Capacity.uniform ~policy:Capacity.Drop_head ~speedup:3 5 in
  check_int "speedup" 3 (Capacity.speedup u);
  check_bool "drop head" true (Capacity.drop_head u);
  check_int "caps" 5 (Capacity.caps u ~m:4).(3);
  check_bool "roundtrip syntax" true
    (Capacity.of_string (Capacity.to_string u) = Ok u);
  check_bool "unknown policy" true
    (Result.is_error (Capacity.of_string "uniform:5:rand"));
  (match Capacity.make ~speedup:0 Capacity.Unbounded with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "speedup 0 accepted");
  (match Capacity.uniform (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative cap accepted")

let model_dt () =
  (* alpha = 1: admit iff len < total - occupancy. *)
  check_bool "admits empty" true
    (Capacity.dt_admits ~alpha_num:1 ~alpha_den:1 ~total:4 ~occupancy:0 ~len:0);
  check_bool "rejects at half" false
    (Capacity.dt_admits ~alpha_num:1 ~alpha_den:1 ~total:4 ~occupancy:2 ~len:2);
  check_bool "pool full rejects" false
    (Capacity.dt_admits ~alpha_num:2 ~alpha_den:1 ~total:4 ~occupancy:4 ~len:0);
  (* A queue holding the whole pool's worth never admits more. *)
  check_bool "long queue rejects" false
    (Capacity.dt_admits ~alpha_num:1 ~alpha_den:2 ~total:8 ~occupancy:5 ~len:2)

let tradeoff_layer () =
  check_int "ceil rho" 2 (Tradeoff.min_speedup ~rho_num:4 ~rho_den:3);
  check_int "integer rho" 1 (Tradeoff.min_speedup ~rho_num:3 ~rho_den:3);
  check_bool "backlog bounded" true
    (Tradeoff.single_hop_backlog ~rho_num:1 ~rho_den:1 ~sigma:7 ~speedup:1
    = Some 7);
  check_bool "overloaded unbounded" true
    (Tradeoff.single_hop_backlog ~rho_num:3 ~rho_den:2 ~sigma:7 ~speedup:1
    = None);
  Alcotest.(check (float 1e-9)) "drop rate" 0.25
    (Tradeoff.drop_rate ~injected:400 ~dropped:100);
  Alcotest.(check (float 1e-9)) "delivered" 0.75
    (Tradeoff.delivered_fraction ~injected:400 ~dropped:100)

(* ------------------------------------------------------------------ *)
(* Buffer_q edge cases                                                 *)
(* ------------------------------------------------------------------ *)

let packet id : Packet.t =
  {
    id;
    injected_at = 0;
    initial = false;
    exogenous = false;
    tag = "t";
    route = [| 0 |];
    hop = 0;
    buffered_at = 0;
    reroutes = 0;
  }

let bq_cap_zero () =
  let b = Buffer_q.create Policies.fifo in
  (* cap 0 rejects everything, even under drop-head (nothing to evict
     would make room: the arrival itself cannot fit). *)
  check_bool "tail rejects" true
    (Buffer_q.enqueue_capped b Policies.fifo ~now:1 ~cap:0 ~drop_head:false
       (packet 0)
    = Buffer_q.Rejected);
  check_bool "head rejects" true
    (Buffer_q.enqueue_capped b Policies.fifo ~now:1 ~cap:0 ~drop_head:true
       (packet 1)
    = Buffer_q.Rejected);
  check_int "still empty" 0 (Buffer_q.length b);
  check_int "no arrivals counted" 0 (Buffer_q.arrivals b)

let bq_cap_one () =
  let b = Buffer_q.create Policies.fifo in
  check_bool "first admitted" true
    (Buffer_q.enqueue_capped b Policies.fifo ~now:1 ~cap:1 ~drop_head:false
       (packet 0)
    = Buffer_q.Admitted);
  check_bool "second rejected" true
    (Buffer_q.enqueue_capped b Policies.fifo ~now:1 ~cap:1 ~drop_head:false
       (packet 1)
    = Buffer_q.Rejected);
  (match
     Buffer_q.enqueue_capped b Policies.fifo ~now:1 ~cap:1 ~drop_head:true
       (packet 2)
   with
  | Buffer_q.Displaced v -> check_int "evicts the incumbent" 0 v.Packet.id
  | _ -> Alcotest.fail "expected displacement");
  check_int "length stays 1" 1 (Buffer_q.length b);
  check_int "admitted arrivals only" 2 (Buffer_q.arrivals b);
  check_int "survivor" 2 (Buffer_q.take b).Packet.id

(* Simultaneous arrivals into cap 2, then one more: drop-tail keeps the
   incumbents in order; drop-head evicts the service-order head — the
   oldest under FIFO, the newest under LIFO. *)
let bq_disciplines () =
  let ids b =
    List.map (fun (p : Packet.t) -> p.Packet.id) (Buffer_q.to_sorted_list b)
  in
  let fill policy =
    let b = Buffer_q.create policy in
    List.iter
      (fun i ->
        check_bool "admitted" true
          (Buffer_q.enqueue_capped b policy ~now:1 ~cap:2 ~drop_head:false
             (packet i)
          = Buffer_q.Admitted))
      [ 0; 1 ];
    b
  in
  let b = fill Policies.fifo in
  check_bool "tail full" true
    (Buffer_q.enqueue_capped b Policies.fifo ~now:1 ~cap:2 ~drop_head:false
       (packet 2)
    = Buffer_q.Rejected);
  check_bool "drop-tail order" true (ids b = [ 0; 1 ]);
  let b = fill Policies.fifo in
  (match
     Buffer_q.enqueue_capped b Policies.fifo ~now:1 ~cap:2 ~drop_head:true
       (packet 2)
   with
  | Buffer_q.Displaced v -> check_int "fifo evicts oldest" 0 v.Packet.id
  | _ -> Alcotest.fail "expected displacement");
  check_bool "fifo head-drop order" true (ids b = [ 1; 2 ]);
  let b = fill Policies.lifo in
  (match
     Buffer_q.enqueue_capped b Policies.lifo ~now:1 ~cap:2 ~drop_head:true
       (packet 2)
   with
  | Buffer_q.Displaced v -> check_int "lifo evicts newest" 1 v.Packet.id
  | _ -> Alcotest.fail "expected displacement");
  check_bool "lifo head-drop order" true (ids b = [ 2; 0 ])

(* qcheck: under any interleaving of capped enqueues and dequeues, with
   any policy and drop discipline, occupancy never exceeds the cap and
   the admit verdict is consistent with the pre-arrival length. *)
let bq_occupancy_prop =
  QCheck.Test.make ~count:500 ~name:"buffer_q occupancy <= cap"
    QCheck.(
      triple (int_bound 6) (int_bound 1000)
        (list_of_size Gen.(int_range 1 60) (int_bound 3)))
    (fun (cap, pseed, ops) ->
      let prng = Prng.create pseed in
      let policy =
        let all = Array.of_list Policies.all_deterministic in
        all.(Prng.int prng (Array.length all))
      in
      let b = Buffer_q.create policy in
      let id = ref 0 in
      List.for_all
        (fun op ->
          if op = 3 then begin
            ignore (Buffer_q.dequeue b);
            true
          end
          else begin
            let before = Buffer_q.length b in
            let drop_head = op = 1 in
            incr id;
            let verdict =
              Buffer_q.enqueue_capped b policy ~now:!id ~cap ~drop_head
                (packet !id)
            in
            let ok_verdict =
              match verdict with
              | Buffer_q.Admitted -> before < cap
              | Buffer_q.Rejected ->
                  before >= cap && ((not drop_head) || before = 0)
              | Buffer_q.Displaced _ -> before >= cap && drop_head && before > 0
            in
            ok_verdict && Buffer_q.length b <= max cap before
          end)
        ops)

(* ------------------------------------------------------------------ *)
(* Engine enforcement                                                  *)
(* ------------------------------------------------------------------ *)

let overload_line ~capacity ~steps =
  let l = B.line 2 in
  let net = N.create ~capacity ~graph:l.graph ~policy:Policies.fifo () in
  for _ = 1 to steps do
    N.step net [ inj l.edges; inj l.edges; inj l.edges ]
  done;
  net

let conservation_with_drops () =
  let capacity = Capacity.uniform ~policy:Capacity.Drop_tail 2 in
  let net = overload_line ~capacity ~steps:30 in
  check_bool "drops happened" true (N.dropped net > 0);
  check_int "conservation" (N.initial_count net + N.injected_count net)
    (N.absorbed net + N.in_flight net + N.dropped net);
  check_bool "peak within caps" true (N.peak_occupancy net <= 2 * 2);
  check_int "per-edge drops sum" (N.dropped net)
    (N.dropped_on_edge net 0 + N.dropped_on_edge net 1)

let capacity_zero_everything_drops () =
  let net =
    overload_line ~capacity:(Capacity.uniform 0) ~steps:10
  in
  check_int "nothing delivered" 0 (N.absorbed net);
  check_int "nothing in flight" 0 (N.in_flight net);
  check_int "all dropped" (N.injected_count net) (N.dropped net);
  check_int "peak occupancy" 0 (N.peak_occupancy net)

let drop_head_displaces () =
  let capacity = Capacity.uniform ~policy:Capacity.Drop_head 1 in
  let net = overload_line ~capacity ~steps:20 in
  check_bool "displacements recorded" true (N.displaced net > 0);
  check_bool "displaced are dropped" true (N.displaced net <= N.dropped net);
  check_int "conservation" (N.injected_count net)
    (N.absorbed net + N.in_flight net + N.dropped net)

let dt_shared_pool () =
  let capacity = Capacity.shared ~alpha_num:1 ~alpha_den:1 4 in
  let net = overload_line ~capacity ~steps:25 in
  check_bool "pool bound respected" true (N.peak_occupancy net <= 4);
  check_bool "overload sheds" true (N.dropped net > 0);
  check_int "conservation" (N.injected_count net)
    (N.absorbed net + N.in_flight net + N.dropped net)

let speedup_multi_send () =
  (* Three packets queued on one edge; at s = 2 each step forwards two. *)
  let l = B.line 1 in
  let net =
    N.create
      ~capacity:(Capacity.make ~speedup:2 Capacity.Unbounded)
      ~graph:l.graph ~policy:Policies.fifo ()
  in
  N.step net [ inj l.edges; inj l.edges; inj l.edges ];
  check_int "queued" 3 (N.buffer_len net l.edges.(0));
  N.step net [];
  check_int "two forwarded" 2 (N.absorbed net);
  N.step net [];
  check_int "last forwarded" 3 (N.absorbed net);
  check_int "sent count" 3 (N.sent_on_edge net l.edges.(0))

let unbounded_matches_default () =
  (* The explicit unbounded model is byte-identical in behaviour to not
     passing a capacity at all (the lockstep differ checks this across
     whole trajectories; here just the cheap end-of-run signature). *)
  let run capacity =
    let r = B.ring 5 in
    let routes =
      Array.init 5 (fun i -> Array.init 3 (fun j -> r.edges.((i + j) mod 5)))
    in
    let net = N.create ?capacity ~graph:r.graph ~policy:Policies.ftg () in
    for t = 1 to 40 do
      N.step net [ inj routes.(t mod 5); inj routes.((t * 3) mod 5) ]
    done;
    ( N.absorbed net,
      N.in_flight net,
      N.max_queue_ever net,
      N.max_dwell net,
      N.dropped net )
  in
  check_bool "same outcome" true
    (run None = run (Some Capacity.unbounded));
  check_bool "no drops unbounded" true
    (let _, _, _, _, d = run (Some Capacity.unbounded) in
     d = 0)

(* qcheck at the network level: random dense schedules against a random
   uniform cap; after every step no buffer exceeds the cap and occupancy
   equals the sum of buffer lengths. *)
let net_occupancy_prop =
  QCheck.Test.make ~count:120 ~name:"network occupancy <= capacity"
    QCheck.(pair (int_bound 3) (int_bound 10_000))
    (fun (cap, seed) ->
      let prng = Prng.create (succ seed) in
      let k = 4 + Prng.int prng 4 in
      let r = B.ring k in
      let routes =
        Array.init k (fun i ->
            Array.init (1 + Prng.int prng 3) (fun j ->
                r.edges.((i + j) mod k)))
      in
      let drop_head = Prng.bool prng in
      let policy =
        if drop_head then Capacity.Drop_head else Capacity.Drop_tail
      in
      let speedup = 1 + Prng.int prng 2 in
      let net =
        N.create
          ~capacity:(Capacity.uniform ~policy ~speedup cap)
          ~graph:r.graph ~policy:Policies.fifo ()
      in
      let ok = ref true in
      for _ = 1 to 30 do
        let injections =
          List.init (Prng.int prng 5) (fun _ ->
              inj routes.(Prng.int prng k))
        in
        N.step net injections;
        let total = ref 0 in
        for e = 0 to k - 1 do
          let len = N.buffer_len net r.edges.(e) in
          total := !total + len;
          if len > cap then ok := false
        done;
        if N.occupancy net <> !total then ok := false
      done;
      !ok && N.peak_occupancy net <= cap * k)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "aqt_capacity"
    [
      ( "model",
        [
          Alcotest.test_case "basics" `Quick model_basics;
          Alcotest.test_case "dynamic threshold" `Quick model_dt;
          Alcotest.test_case "tradeoff" `Quick tradeoff_layer;
        ] );
      ( "buffer_q",
        [
          Alcotest.test_case "cap zero" `Quick bq_cap_zero;
          Alcotest.test_case "cap one" `Quick bq_cap_one;
          Alcotest.test_case "drop disciplines" `Quick bq_disciplines;
          q bq_occupancy_prop;
        ] );
      ( "engine",
        [
          Alcotest.test_case "conservation with drops" `Quick
            conservation_with_drops;
          Alcotest.test_case "capacity zero" `Quick
            capacity_zero_everything_drops;
          Alcotest.test_case "drop-head displacement" `Quick drop_head_displaces;
          Alcotest.test_case "dynamic-threshold pool" `Quick dt_shared_pool;
          Alcotest.test_case "speedup multi-send" `Quick speedup_multi_send;
          Alcotest.test_case "unbounded = default" `Quick
            unbounded_matches_default;
          q net_occupancy_prop;
        ] );
    ]
