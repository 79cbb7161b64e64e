module H = Aqt_util.Binheap
module Dq = Aqt_util.Deque

(* Arrival-ordered policies get O(1) deques; everything else a binary heap
   keyed at enqueue.  The two representations are observationally equivalent
   for their disciplines (tested in test_engine/test_policy). *)
type impl =
  | Fifo of Packet.t Dq.t
  | Lifo of Packet.t Dq.t
  | Keyed of Packet.t H.t

type t = { impl : impl; mutable seq : int }

let create (policy : Policy_type.t) =
  let impl =
    match policy.discipline with
    | Policy_type.Arrival_order -> Fifo (Dq.create ())
    | Policy_type.Reverse_arrival -> Lifo (Dq.create ())
    | Policy_type.By_key -> Keyed (H.create ())
  in
  { impl; seq = 0 }

let length b =
  match b.impl with Fifo d | Lifo d -> Dq.length d | Keyed h -> H.length h

let is_empty b = length b = 0

let enqueue b (policy : Policy_type.t) ~now (p : Packet.t) =
  let seq = b.seq in
  b.seq <- seq + 1;
  match b.impl with
  | Fifo d | Lifo d -> Dq.push_back d p
  | Keyed h ->
      let key = policy.key p ~now ~seq in
      H.add h ~key ~tie:seq p

type admit = Admitted | Rejected | Displaced of Packet.t

(* Option-returning primitives, not try/with: the dequeue path runs once per
   nonempty buffer per step and must not allocate exceptions. *)
let dequeue b =
  match b.impl with
  | Fifo d -> Dq.pop_front_opt d
  | Lifo d -> Dq.pop_back_opt d
  | Keyed h -> H.pop_min_opt h

(* The step loop's branch-free variant: the active-edge list guarantees the
   buffer is nonempty, so skip even the option wrapper.  Raising here means
   the active-list invariant broke — an engine bug, not control flow. *)
let take b =
  match b.impl with
  | Fifo d -> Dq.pop_front d
  | Lifo d -> Dq.pop_back d
  | Keyed h -> H.pop_min h

(* Capacity-aware insertion.  A full buffer either rejects the arrival
   (drop-tail) or, with [drop_head], evicts the packet the policy would
   forward next — the head of the service order, so FIFO sheds its oldest
   packet and LIFO its newest.  [cap = 0] rejects unconditionally: there is
   no occupant to displace in favour of the arrival.  The arrival sequence
   counter advances only for packets actually admitted. *)
let enqueue_capped b policy ~now ~cap ~drop_head (p : Packet.t) =
  let len = length b in
  if len < cap then begin
    enqueue b policy ~now p;
    Admitted
  end
  else if drop_head && len > 0 then begin
    let victim = take b in
    enqueue b policy ~now p;
    Displaced victim
  end
  else Rejected

let peek b =
  match b.impl with
  | Fifo d -> Dq.peek_front_opt d
  | Lifo d -> Dq.peek_back_opt d
  | Keyed h -> H.min_elt_opt h

let iter f b =
  match b.impl with Fifo d | Lifo d -> Dq.iter f d | Keyed h -> H.iter f h

let fold_right f b init =
  match b.impl with
  | Fifo d ->
      let acc = ref init in
      for i = Dq.length d - 1 downto 0 do
        acc := f (Dq.get d i) !acc
      done;
      !acc
  | Lifo d ->
      let acc = ref init in
      for i = 0 to Dq.length d - 1 do
        acc := f (Dq.get d i) !acc
      done;
      !acc
  | Keyed h -> List.fold_right f (H.to_sorted_list h) init

let to_sorted_list b =
  match b.impl with
  | Fifo _ | Lifo _ -> fold_right List.cons b []
  | Keyed h -> H.to_sorted_list h

let arrivals b = b.seq
