(** The buffer at the tail of one link.

    A priority queue of packets ordered by the policy key computed at
    enqueue time, ties broken by arrival order.  Arrival-ordered disciplines
    (FIFO/LIFO) use O(1) deques; general priorities use an O(log k) binary
    heap. *)

type t

val create : Policy_type.t -> t
(* The policy's discipline selects the representation. *)
val length : t -> int
val is_empty : t -> bool

val enqueue : t -> Policy_type.t -> now:int -> Packet.t -> unit
(** Computes the policy key for the packet and inserts it. *)

type admit =
  | Admitted  (** the arrival was enqueued *)
  | Rejected  (** the buffer was full (or [cap = 0]); the arrival is lost *)
  | Displaced of Packet.t
      (** the arrival was enqueued after evicting the returned packet — the
          one the policy would have forwarded next *)

val enqueue_capped :
  t -> Policy_type.t -> now:int -> cap:int -> drop_head:bool -> Packet.t ->
  admit
(** [enqueue] against a finite capacity [cap].  With [drop_head] a full
    buffer evicts its service-order head to admit the arrival; without it
    the arrival is rejected (drop-tail).  [cap = 0] always rejects.  Only
    admitted packets advance the {!arrivals} counter. *)

val dequeue : t -> Packet.t option
(** Removes and returns the packet the policy forwards next. *)

val take : t -> Packet.t
(** [dequeue] for a buffer the caller knows is nonempty (the step loop only
    visits active edges); allocates nothing.
    @raise Not_found if empty — an invariant violation, not control flow. *)

val peek : t -> Packet.t option
val iter : (Packet.t -> unit) -> t -> unit
(** Arbitrary order. *)

val to_sorted_list : t -> Packet.t list
(** Forwarding order (head of the queue first). *)

val fold_right : (Packet.t -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold_right f b init] is [List.fold_right f (to_sorted_list b) init],
    without the list for FIFO and LIFO buffers. *)

val arrivals : t -> int
(** Total packets ever admitted here (the arrival sequence counter);
    arrivals rejected by {!enqueue_capped} do not count. *)
