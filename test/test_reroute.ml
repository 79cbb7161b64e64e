(* Tests for the Lemma 3.3 rerouting helper: precondition checks (historic
   policy, shared edge, new edges per Def 3.2) and the route rewrite itself. *)

module R = Aqt_util.Ratio
module B = Aqt_graph.Build
module N = Aqt_engine.Network
module Packet = Aqt_engine.Packet
module Policies = Aqt_policy.Policies
module Reroute = Aqt.Reroute

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let rate = R.make 3 5 (* 1/2 + 1/10; ceil(1/r) = 2 *)

let inj route : N.injection = { route; tag = "t" }

(* A line where packets sit at e0 with remaining routes through e1, and the
   suffix extends onto e2, e3 which no injection ever used. *)
let setup () =
  let l = B.line 5 in
  let net = N.create ~graph:l.graph ~policy:Policies.fifo () in
  N.step net [ inj (Array.sub l.edges 0 2); inj (Array.sub l.edges 0 2) ];
  let packets = N.buffer_packets net l.edges.(0) in
  (net, l, packets)

let extend_success () =
  let net, l, packets = setup () in
  (match
     Reroute.extend_all ~rate net ~packets
       ~suffix:[| l.edges.(2); l.edges.(3) |]
   with
  | Ok () -> ()
  | Error e ->
      Alcotest.failf "unexpected: %s"
        (Format.asprintf "%a" Reroute.pp_error e));
  List.iter
    (fun p ->
      check_int "route extended" 4 (Array.length p.Packet.route);
      check_int "rerouted once" 1 p.Packet.reroutes)
    packets;
  check_int "reroute count" 2 (N.reroute_count net);
  (* Packets actually follow the extension. *)
  for _ = 1 to 6 do
    N.step net []
  done;
  check_int "absorbed after 4 hops each" 2 (N.absorbed net)

let empty_cases_noop () =
  let net, l, packets = setup () in
  check_bool "empty suffix ok" true
    (Reroute.extend_all ~rate net ~packets ~suffix:[||] = Ok ());
  check_bool "no packets ok" true
    (Reroute.extend_all ~rate net ~packets:[] ~suffix:[| l.edges.(2) |] = Ok ());
  List.iter (fun p -> check_int "untouched" 0 p.Packet.reroutes) packets

let rejects_non_historic () =
  let l = B.line 5 in
  let net = N.create ~graph:l.graph ~policy:Policies.ntg () in
  N.step net [ inj (Array.sub l.edges 0 2) ];
  let packets = N.buffer_packets net l.edges.(0) in
  match Reroute.extend_all ~rate net ~packets ~suffix:[| l.edges.(2) |] with
  | Error (Reroute.Policy_not_historic "ntg") -> ()
  | _ -> Alcotest.fail "NTG must be rejected (not historic)"

let rejects_no_shared_edge () =
  let l = B.line 5 in
  let net = N.create ~graph:l.graph ~policy:Policies.fifo () in
  (* One packet needs only e0; the other only e1: no common edge. *)
  N.step net [ inj (Array.sub l.edges 0 1) ];
  N.step net [ inj (Array.sub l.edges 1 1) ];
  let p0 = N.buffer_packets net l.edges.(0) in
  let p1 = N.buffer_packets net l.edges.(1) in
  (* p0's packet was injected at step 1 and crossed e0 in step 2 — it is
     absorbed, so use two fresh disjoint packets instead. *)
  ignore p0;
  let net2 = N.create ~graph:l.graph ~policy:Policies.fifo () in
  N.step net2 [ inj (Array.sub l.edges 0 1); inj (Array.sub l.edges 1 1) ];
  let packets =
    N.buffer_packets net2 l.edges.(0) @ N.buffer_packets net2 l.edges.(1)
  in
  check_int "two live packets" 2 (List.length packets);
  (match
     Reroute.extend_all ~rate net2 ~packets ~suffix:[| l.edges.(2) |]
   with
  | Error Reroute.No_shared_edge -> ()
  | _ -> Alcotest.fail "disjoint routes must be rejected");
  ignore p1

let rejects_stale_edge () =
  let net, l, _ = setup () in
  (* Inject a packet that uses e3 now: e3 is no longer new. *)
  N.step net [ inj (Array.sub l.edges 3 1) ];
  let packets = N.buffer_packets net l.edges.(0) in
  match
    Reroute.extend_all ~rate net ~packets ~suffix:[| l.edges.(2); l.edges.(3) |]
  with
  | Error (Reroute.Stale_edge { edge; _ }) ->
      check_int "e3 flagged" l.edges.(3) edge
  | _ -> Alcotest.fail "recently used edge must be rejected"

(* Def 3.2's threshold uses t* - ceil(1/r): an edge used long before the
   earliest live injection is new again. *)
let old_use_is_fine () =
  let l = B.line 5 in
  let net = N.create ~graph:l.graph ~policy:Policies.fifo () in
  (* Step 1: a short-lived packet uses e3 and is absorbed immediately. *)
  N.step net [ inj (Array.sub l.edges 3 1) ];
  N.step net [];
  (* Steps 3..6: idle; step 7: inject the packets to extend. *)
  for _ = 3 to 6 do
    N.step net []
  done;
  N.step net [ inj (Array.sub l.edges 0 2) ];
  let packets = N.buffer_packets net l.edges.(0) in
  (* t* = 7, threshold = 5 > 1 = last use of e3. *)
  check_bool "old use acceptable" true
    (Reroute.extend_all ~rate net ~packets ~suffix:[| l.edges.(2); l.edges.(3) |]
    = Ok ())

let rejects_absorbed () =
  let net, l, packets = setup () in
  (* Drain both packets, then try to extend them. *)
  for _ = 1 to 5 do
    N.step net []
  done;
  match Reroute.extend_all ~rate net ~packets ~suffix:[| l.edges.(2) |] with
  | Error (Reroute.Packet_absorbed _) -> ()
  | _ -> Alcotest.fail "absorbed packets must be rejected"

let rejects_invalid_path () =
  let net, l, packets = setup () in
  (* e4 does not follow e1. *)
  match Reroute.extend_all ~rate net ~packets ~suffix:[| l.edges.(4) |] with
  | Error (Reroute.Invalid_path _) -> ()
  | _ -> Alcotest.fail "disconnected suffix must be rejected"

let error_is_atomic () =
  let net, l, packets = setup () in
  (* Invalid suffix: verify no packet was modified. *)
  let _ = Reroute.extend_all ~rate net ~packets ~suffix:[| l.edges.(4) |] in
  List.iter
    (fun p ->
      check_int "route unchanged" 2 (Array.length p.Packet.route);
      check_int "no reroute recorded" 0 p.Packet.reroutes)
    packets

let check_new_edges_direct () =
  let net, l, _ = setup () in
  check_bool "unused edges are new" true
    (Reroute.check_new_edges ~rate net [| l.edges.(3); l.edges.(4) |] = Ok ());
  (* e0 and e1 were just injected on. *)
  check_bool "used edges are stale" true
    (Result.is_error (Reroute.check_new_edges ~rate net [| l.edges.(0) |]))

(* ------------------------------------------------------------------ *)
(* Def 3.5 classes                                                     *)
(* ------------------------------------------------------------------ *)

module RI = Aqt_engine.Route_intern

(* Routes e0..e3, e1..e3 and e2..e3 injected together for three steps, then
   one idle step: the buffers of e0..e3 hold packets of several routes and
   hops, interleaved.  Every remaining route ends at e3, the shared edge;
   e4 and beyond are new. *)
let mixed_net () =
  let l = B.line 9 in
  let net = N.create ~graph:l.graph ~policy:Policies.fifo () in
  for _ = 1 to 3 do
    N.step net
      [
        inj (Array.sub l.edges 0 4);
        inj (Array.sub l.edges 1 3);
        inj (Array.sub l.edges 2 2);
      ]
  done;
  N.step net [];
  (net, l)

let buffered_on net (l : B.line) edges =
  List.concat_map (fun i -> N.buffer_packets net l.edges.(i)) edges

let mixed_packets net l = buffered_on net l [ 0; 1; 2; 3 ]

let n_classes packets =
  List.length
    (List.sort_uniq compare
       (List.map
          (fun (p : Packet.t) -> (Array.to_list p.route, p.hop))
          packets))

(* What each packet carries, route by contents. *)
let contents net =
  let acc = ref [] in
  N.iter_buffered
    (fun p ->
      acc := (p.Packet.id, Array.to_list p.route, p.hop, p.reroutes) :: !acc)
    net;
  List.sort compare !acc

let classes_match_per_packet_reference () =
  let net, l = mixed_net () in
  let packets = mixed_packets net l in
  check_bool "several classes" true (n_classes packets >= 4);
  let suffix = [| l.edges.(4); l.edges.(5) |] in
  (match Reroute.extend_all ~rate net ~packets ~suffix with
  | Ok () -> ()
  | Error e -> Alcotest.failf "unexpected: %a" Reroute.pp_error e);
  (* The reference: the same run, then one Network.reroute per packet with
     its own old remainder and the suffix appended. *)
  let ref_net, _ = mixed_net () in
  List.iter
    (fun (p : Packet.t) ->
      let keep =
        Array.sub p.route (p.hop + 1) (Array.length p.route - p.hop - 1)
      in
      N.reroute ref_net p (Array.append keep suffix))
    (mixed_packets ref_net l);
  check_bool "same routes, hops and reroutes" true
    (contents net = contents ref_net);
  check_int "same reroute count" (N.reroute_count ref_net) (N.reroute_count net);
  check_int "one reroute per packet" (List.length packets) (N.reroute_count net)

let class_shares_interned_array () =
  let net, l = mixed_net () in
  let packets = mixed_packets net l in
  (* A class's new route is its old route plus the suffix, so classes that
     differ only in hop end up sharing too. *)
  let old_routes =
    List.length
      (List.sort_uniq compare
         (List.map (fun (p : Packet.t) -> Array.to_list p.route) packets))
  in
  (match
     Reroute.extend_all ~rate net ~packets
       ~suffix:[| l.edges.(4); l.edges.(5) |]
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "unexpected: %a" Reroute.pp_error e);
  let table = N.route_table net in
  List.iter
    (fun (p : Packet.t) ->
      match RI.find table p.route with
      | Some canonical ->
          check_bool "the table's canonical array" true (canonical == p.route)
      | None -> Alcotest.fail "rerouted route not interned")
    packets;
  check_bool "equal routes are one array" true
    (List.for_all
       (fun (p : Packet.t) ->
         List.for_all
           (fun (q : Packet.t) -> p.route <> q.route || p.route == q.route)
           packets)
       packets);
  check_int "one array per old route" old_routes
    (List.length
       (List.fold_left
          (fun arrays (p : Packet.t) ->
            if List.exists (fun a -> a == p.route) arrays then arrays
            else p.route :: arrays)
          [] packets))

let invalid_after_memo_hit () =
  let l = B.line 5 in
  let net = N.create ~graph:l.graph ~policy:Policies.fifo () in
  N.step net (List.init 3 (fun _ -> inj (Array.sub l.edges 0 2)));
  let p1, p2, p3 =
    match N.buffer_packets net l.edges.(0) with
    | [ p1; p2; p3 ] -> (p1, p2, p3)
    | _ -> Alcotest.fail "expected three packets"
  in
  let suffix = [| l.edges.(1); l.edges.(2) |] in
  N.reroute net p1 suffix;
  N.reroute net p2 suffix;
  check_bool "memo hit installs the same array" true (p1.route == p2.route);
  let bad = [| l.edges.(0); l.edges.(1); l.edges.(3) |] in
  Alcotest.check_raises "non-simple result"
    (Invalid_argument
       (Format.asprintf "Network: route %a is not a simple path"
          (Aqt_graph.Digraph.pp_route (N.graph net))
          bad))
    (fun () -> N.reroute net p3 [| l.edges.(1); l.edges.(3) |]);
  (* The same suffix array, edited in place into a non-simple one. *)
  suffix.(1) <- l.edges.(3);
  Alcotest.check_raises "edited suffix revalidated"
    (Invalid_argument
       (Format.asprintf "Network: route %a is not a simple path"
          (Aqt_graph.Digraph.pp_route (N.graph net))
          bad))
    (fun () -> N.reroute net p3 suffix);
  check_int "p3 untouched" 2 (Array.length p3.route);
  check_int "p3 not rerouted" 0 p3.reroutes;
  check_int "two reroutes" 2 (N.reroute_count net)

let mutated_suffix_not_memoised () =
  (* On a grid the node (0,1) has two ways on: right and down. *)
  let g = B.grid ~rows:2 ~cols:3 in
  let net = N.create ~graph:g.graph ~policy:Policies.fifo () in
  let first = g.right_of 0 0 in
  N.step net [ inj [| first |]; inj [| first |] ];
  let p1, p2 =
    match N.buffer_packets net first with
    | [ p1; p2 ] -> (p1, p2)
    | _ -> Alcotest.fail "expected two packets"
  in
  let suffix = [| g.right_of 0 1 |] in
  N.reroute net p1 suffix;
  suffix.(0) <- g.down_of 0 1;
  N.reroute net p2 suffix;
  check_bool "first keeps its route" true
    (p1.route = [| first; g.right_of 0 1 |]);
  check_bool "second follows the new contents" true
    (p2.route = [| first; g.down_of 0 1 |])

let snapshot packets =
  List.map (fun (p : Packet.t) -> (p, p.route, p.hop, p.reroutes)) packets

let unmodified name before =
  List.iter
    (fun ((p : Packet.t), route, hop, reroutes) ->
      check_bool (name ^ ": same route array") true (p.route == route);
      check_int (name ^ ": same hop") hop p.hop;
      check_int (name ^ ": same reroutes") reroutes p.reroutes)
    before

let mixed_errors_atomic () =
  (* Invalid_path: e5 does not follow e3.  The error names the first
     packet of the first failing class. *)
  let net, l = mixed_net () in
  let packets = mixed_packets net l in
  let before = snapshot packets in
  (match Reroute.extend_all ~rate net ~packets ~suffix:[| l.edges.(5) |] with
  | Error (Reroute.Invalid_path msg) ->
      let first = Printf.sprintf "packet #%d:" (List.hd packets).id in
      check_bool "names the first packet" true
        (String.length msg >= String.length first
        && String.sub msg 0 (String.length first) = first)
  | _ -> Alcotest.fail "disconnected suffix must be rejected");
  unmodified "invalid path" before;
  (* Stale_edge: e4 carries an injection now. *)
  let net, l = mixed_net () in
  N.step net [ inj [| l.edges.(4) |] ];
  let packets = mixed_packets net l in
  let before = snapshot packets in
  (match
     Reroute.extend_all ~rate net ~packets
       ~suffix:[| l.edges.(4); l.edges.(5) |]
   with
  | Error (Reroute.Stale_edge _) -> ()
  | _ -> Alcotest.fail "recently used edge must be rejected");
  unmodified "stale edge" before;
  (* No_shared_edge: one more class whose remaining route avoids e3. *)
  let net, l = mixed_net () in
  N.step net [ inj [| l.edges.(7) |] ];
  let packets = mixed_packets net l @ buffered_on net l [ 7 ] in
  let before = snapshot packets in
  (match
     Reroute.extend_all ~rate net ~packets ~suffix:[| l.edges.(8) |]
   with
  | Error Reroute.No_shared_edge -> ()
  | _ -> Alcotest.fail "disjoint routes must be rejected");
  unmodified "no shared edge" before;
  check_int "nothing rerouted" 0 (N.reroute_count net)

(* Property form of Lemma 3.3: whenever [extend_all] accepts, the run's final
   effective routes still satisfy the exact rate-r constraint. *)
let prop_accepted_extensions_stay_rate_legal =
  QCheck.Test.make ~name:"accepted extensions keep the log rate-legal"
    ~count:100
    (QCheck.quad (QCheck.int_range 1 4) (QCheck.int_range 2 9)
       (QCheck.int_range 5 30) (QCheck.int_range 1 6))
    (fun (p, q, extend_at, suffix_len) ->
      QCheck.assume (p < q);
      let rate = R.make p q in
      let hops = 16 in
      let l = B.line hops in
      let net =
        N.create ~log_injections:true ~graph:l.graph ~policy:Policies.fifo ()
      in
      let route = Array.sub l.edges 0 4 in
      let flow =
        Aqt_adversary.Flow.make ~route ~rate ~start:1 ~stop:40 ()
      in
      let extended = ref true in
      for t = 1 to 80 do
        if t = extend_at then begin
          let packets = ref [] in
          for e = 0 to 3 do
            packets := N.buffer_packets net l.edges.(e) @ !packets
          done;
          let suffix =
            Array.init suffix_len (fun j -> l.edges.(4 + j))
          in
          match Reroute.extend_all ~rate net ~packets:!packets ~suffix with
          | Ok () -> ()
          | Error _ -> extended := false
        end;
        N.step net
          (List.init (Aqt_adversary.Flow.count_at flow t)
             (fun _ : N.injection -> { route; tag = "f" }))
      done;
      (* The property: either rejected cleanly, or the final routes remain a
         legal rate-r injection pattern. *)
      (not !extended)
      || Aqt_adversary.Rate_check.check_rate ~m:hops ~rate
           (N.injection_log net)
         = Ok ())

(* And the rejection direction: extensions onto an edge used too recently
   are always refused. *)
let prop_stale_extensions_rejected =
  QCheck.Test.make ~name:"extensions onto just-used edges are rejected"
    ~count:100
    (QCheck.int_range 2 9)
    (fun q ->
      let rate = R.make 1 q in
      let l = B.line 6 in
      let net = N.create ~graph:l.graph ~policy:Policies.fifo () in
      (* Use e4 now, then immediately try to extend onto it. *)
      N.step net [ inj (Array.sub l.edges 0 2); inj (Array.sub l.edges 4 1) ];
      let packets = N.buffer_packets net l.edges.(0) in
      match
        Reroute.extend_all ~rate net ~packets
          ~suffix:[| l.edges.(2); l.edges.(3); l.edges.(4) |]
      with
      | Error (Reroute.Stale_edge _) -> true
      | _ -> false)

let () =
  Alcotest.run "aqt_reroute"
    [
      ( "lemma-3.3",
        [
          Alcotest.test_case "extension succeeds" `Quick extend_success;
          Alcotest.test_case "no-ops" `Quick empty_cases_noop;
          Alcotest.test_case "non-historic rejected" `Quick rejects_non_historic;
          Alcotest.test_case "no shared edge" `Quick rejects_no_shared_edge;
          Alcotest.test_case "stale edge" `Quick rejects_stale_edge;
          Alcotest.test_case "old use is new again" `Quick old_use_is_fine;
          Alcotest.test_case "absorbed packets" `Quick rejects_absorbed;
          Alcotest.test_case "invalid path" `Quick rejects_invalid_path;
          Alcotest.test_case "atomic on error" `Quick error_is_atomic;
          Alcotest.test_case "check_new_edges" `Quick check_new_edges_direct;
          Alcotest.test_case "classes match per-packet reroutes" `Quick
            classes_match_per_packet_reference;
          Alcotest.test_case "class shares one interned array" `Quick
            class_shares_interned_array;
          Alcotest.test_case "invalid right after a memo hit" `Quick
            invalid_after_memo_hit;
          Alcotest.test_case "edited suffix is not memoised" `Quick
            mutated_suffix_not_memoised;
          Alcotest.test_case "mixed-class errors are atomic" `Quick
            mixed_errors_atomic;
          QCheck_alcotest.to_alcotest prop_accepted_extensions_stay_rate_legal;
          QCheck_alcotest.to_alcotest prop_stale_extensions_rejected;
        ] );
    ]
