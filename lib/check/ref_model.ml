module P = Aqt_engine.Packet
module Digraph = Aqt_graph.Digraph
module Network = Aqt_engine.Network
module Capacity = Aqt_capacity.Model

(* One buffered packet: priority key (fixed at enqueue), per-buffer arrival
   sequence number, packet record.  The buffer forwards the least (key, seq);
   keeping the list in arrival order and sorting on demand is the most
   obviously correct reading of that rule. *)
type slot = { key : int; seq : int; pkt : P.t }

type t = {
  graph : Digraph.t;
  policy : Aqt_engine.Policy_type.t;
  tie_order : Network.tie_order;
  capacity : Capacity.t;
  caps : int array; (* static per-edge limits, max_int where none *)
  mutable dropped : int;
  mutable displaced : int;
  dropped_edge : int array;
  mutable peak_occupancy : int;
  buffers : slot list array; (* arrival order; selection sorts on demand *)
  seqs : int array; (* per-buffer arrival counters *)
  mutable active : int list; (* nonempty buffers, activation order *)
  mutable now : int;
  mutable next_id : int;
  mutable in_flight : int;
  mutable absorbed : int;
  mutable injected : int;
  mutable initials : int;
  mutable reroutes : int;
  mutable max_queue : int;
  max_queue_edge : int array;
  sent_edge : int array;
  mutable max_dwell : int;
  mutable latency_sum : int;
  mutable latency_max : int;
  (* (injected_at, id, packet) of every adversary injection, oldest first;
     the packet record is retained so [injection_log] reads the *final*
     route after any reroutes, as the engine does. *)
  mutable log : (int * int * P.t) list;
  last_use : int array;
}

let create ?(tie_order = Network.Transit_first)
    ?(capacity = Capacity.unbounded) ~graph ~policy () =
  let m = Digraph.n_edges graph in
  {
    graph;
    policy;
    tie_order;
    capacity;
    caps = Capacity.caps capacity ~m;
    dropped = 0;
    displaced = 0;
    dropped_edge = Array.make m 0;
    peak_occupancy = 0;
    buffers = Array.make m [];
    seqs = Array.make m 0;
    active = [];
    now = 0;
    next_id = 0;
    in_flight = 0;
    absorbed = 0;
    injected = 0;
    initials = 0;
    reroutes = 0;
    max_queue = 0;
    max_queue_edge = Array.make m 0;
    sent_edge = Array.make m 0;
    max_dwell = 0;
    latency_sum = 0;
    latency_max = 0;
    log = [];
    last_use = Array.make m min_int;
  }

let check_route t route =
  if not (Digraph.route_is_simple t.graph route) then
    invalid_arg
      (Format.asprintf "Ref_model: route %a is not a simple path"
         (Digraph.pp_route t.graph) route)

let slot_compare a b = compare (a.key, a.seq) (b.key, b.seq)

(* Total buffered population, recomputed from scratch — the naive reading of
   the quantity the engine maintains incrementally. *)
let occupancy t =
  Array.fold_left (fun acc l -> acc + List.length l) 0 t.buffers

let enqueue t (p : P.t) e =
  p.P.buffered_at <- t.now;
  let seq = t.seqs.(e) in
  t.seqs.(e) <- seq + 1;
  let key = t.policy.key p ~now:t.now ~seq in
  t.buffers.(e) <- t.buffers.(e) @ [ { key; seq; pkt = p } ];
  if not (List.mem e t.active) then t.active <- t.active @ [ e ];
  let occ = occupancy t in
  if occ > t.peak_occupancy then t.peak_occupancy <- occ;
  let len = List.length t.buffers.(e) in
  if len > t.max_queue then t.max_queue <- len;
  if len > t.max_queue_edge.(e) then t.max_queue_edge.(e) <- len

let drop_packet t (_p : P.t) e ~displaced =
  t.dropped <- t.dropped + 1;
  t.dropped_edge.(e) <- t.dropped_edge.(e) + 1;
  if displaced then t.displaced <- t.displaced + 1;
  t.in_flight <- t.in_flight - 1

(* Capacity-model arrival, mirroring [Network]'s admission exactly: a
   Shared model admits by the Dynamic-Threshold test (rejections are tail
   drops); a static cap rejects the arrival (drop-tail) or evicts the least
   (key, seq) slot — the packet the policy would forward next (drop-head);
   the unbounded model is a plain enqueue. *)
let admit t (p : P.t) e =
  if Capacity.is_unbounded t.capacity then enqueue t p e
  else begin
    let total = Capacity.shared_total t.capacity in
    let len = List.length t.buffers.(e) in
    if total <> max_int then begin
      let alpha_num, alpha_den = Capacity.alpha t.capacity in
      if
        Capacity.dt_admits ~alpha_num ~alpha_den ~total
          ~occupancy:(occupancy t) ~len
      then enqueue t p e
      else drop_packet t p e ~displaced:false
    end
    else if len < t.caps.(e) then enqueue t p e
    else if Capacity.drop_head t.capacity && len > 0 then begin
      let victim = List.hd (List.sort slot_compare t.buffers.(e)) in
      t.buffers.(e) <-
        List.filter (fun s -> s.seq <> victim.seq) t.buffers.(e);
      drop_packet t victim.pkt e ~displaced:true;
      enqueue t p e
    end
    else drop_packet t p e ~displaced:false
  end

let fresh_packet t ~initial ~tag route : P.t =
  let id = t.next_id in
  t.next_id <- id + 1;
  {
    id;
    injected_at = t.now;
    initial;
    exogenous = false;
    tag;
    route;
    hop = 0;
    buffered_at = t.now;
    reroutes = 0;
  }

let mark_route_use t route =
  Array.iter (fun e -> t.last_use.(e) <- t.now) route

let place_initial t ?(tag = "init") route =
  if t.now <> 0 then
    invalid_arg "Ref_model.place_initial: the system already started";
  check_route t route;
  let route = Array.copy route in
  let p = fresh_packet t ~initial:true ~tag route in
  t.initials <- t.initials + 1;
  t.in_flight <- t.in_flight + 1;
  mark_route_use t route;
  admit t p route.(0);
  p

let absorb t (p : P.t) =
  t.absorbed <- t.absorbed + 1;
  t.in_flight <- t.in_flight - 1;
  let latency = t.now - p.P.injected_at in
  t.latency_sum <- t.latency_sum + latency;
  if latency > t.latency_max then t.latency_max <- latency

let inject t (inj : Network.injection) =
  check_route t inj.route;
  let route = Array.copy inj.route in
  let p = fresh_packet t ~initial:false ~tag:inj.tag route in
  t.injected <- t.injected + 1;
  t.in_flight <- t.in_flight + 1;
  mark_route_use t route;
  t.log <- (p.P.injected_at, p.P.id, p) :: t.log;
  admit t p route.(0)

let deliver t pending =
  List.iter
    (fun (p : P.t) ->
      p.P.hop <- p.P.hop + 1;
      if p.P.hop >= Array.length p.P.route then absorb t p
      else admit t p p.P.route.(p.P.hop))
    pending

let rec first_n n = function
  | [] -> []
  | x :: rest -> if n <= 0 then [] else x :: first_n (n - 1) rest

let step t injections =
  t.now <- t.now + 1;
  (* Substep 1: every nonempty buffer forwards its (up to [speedup]) least
     (key, seq) packets, simultaneously — all removals happen before any
     substep-2 enqueue.  Edges that stay nonempty keep their active-list
     order. *)
  let speedup = Capacity.speedup t.capacity in
  let old_active = t.active in
  let forwards =
    List.concat_map
      (fun e ->
        let chosen =
          first_n speedup (List.sort slot_compare t.buffers.(e))
        in
        List.map
          (fun best ->
            t.buffers.(e) <-
              List.filter (fun s -> s.seq <> best.seq) t.buffers.(e);
            let p = best.pkt in
            let dwell = t.now - p.P.buffered_at in
            if dwell > t.max_dwell then t.max_dwell <- dwell;
            t.sent_edge.(e) <- t.sent_edge.(e) + 1;
            (e, p))
          chosen)
      old_active
  in
  t.active <- List.filter (fun e -> t.buffers.(e) <> []) old_active;
  (* Substep 2: forwarded packets re-enter (or are absorbed) in forwarding
     order; the step's injections enter in list order; [tie_order] says
     which group goes first.  Buffers emptied in substep 1 and refilled here
     re-activate at the back of the active list. *)
  let pending = List.map snd forwards in
  (match t.tie_order with
  | Network.Transit_first ->
      deliver t pending;
      List.iter (inject t) injections
  | Network.Injection_first ->
      List.iter (inject t) injections;
      deliver t pending);
  List.map (fun (e, (p : P.t)) -> (e, p.P.id)) forwards

let reroute t (p : P.t) suffix =
  if P.is_absorbed p then
    invalid_arg "Ref_model.reroute: packet already absorbed";
  let new_route =
    Array.concat [ Array.sub p.P.route 0 (p.P.hop + 1); suffix ]
  in
  check_route t new_route;
  p.P.route <- new_route;
  p.P.reroutes <- p.P.reroutes + 1;
  t.reroutes <- t.reroutes + 1

let now t = t.now
let buffer_len t e = List.length t.buffers.(e)

let buffer_packets t e =
  List.map (fun s -> s.pkt) (List.sort slot_compare t.buffers.(e))

let iter_buffered f t =
  List.iter (fun e -> List.iter (fun s -> f s.pkt) t.buffers.(e)) t.active

let in_flight t = t.in_flight
let absorbed t = t.absorbed
let injected_count t = t.injected
let initial_count t = t.initials
let max_queue_ever t = t.max_queue
let max_queue_of_edge t e = t.max_queue_edge.(e)
let sent_on_edge t e = t.sent_edge.(e)
let max_dwell t = t.max_dwell

let max_pending_dwell t =
  let best = ref 0 in
  iter_buffered (fun p -> best := max !best (t.now - p.P.buffered_at)) t;
  !best

let delivered_latency_max t = t.latency_max

let delivered_latency_mean t =
  if t.absorbed = 0 then 0.0
  else float_of_int t.latency_sum /. float_of_int t.absorbed

let reroute_count t = t.reroutes
let last_injection_on t e = t.last_use.(e)
let dropped t = t.dropped
let displaced t = t.displaced
let dropped_on_edge t e = t.dropped_edge.(e)
let peak_occupancy t = t.peak_occupancy

let injection_log t =
  let all =
    List.sort
      (fun (t1, id1, _) (t2, id2, _) ->
        if t1 <> t2 then Int.compare t1 t2 else Int.compare id1 id2)
      t.log
  in
  Array.of_list (List.map (fun (time, _, p) -> (time, p.P.route)) all)
