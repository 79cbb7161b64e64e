(** The finite-capacity model axis: bounded buffers, drop disciplines, and
    integer link speedup.

    The source paper (SPAA 2002) idealises unbounded queues and unit-speed
    links.  Its successors — arXiv:1707.03856 (buffer size for limited-rate
    adversarial traffic) and arXiv:1902.08069 (speedup vs. small buffers) —
    bound the buffers and speed up the links.  This module is the pure
    description of that regime; {!Aqt_engine.Network} executes it. *)

type policy =
  | Drop_tail  (** reject the arriving packet *)
  | Drop_head
      (** displace the packet the scheduling policy would forward next (the
          head of the service order) to admit the arrival *)

type buffers =
  | Unbounded  (** the paper's regime: no drops ever *)
  | Uniform of { cap : int; policy : policy }
      (** every edge buffer holds at most [cap] packets *)
  | Per_edge of { caps : int array; policy : policy }
      (** buffer of edge [e] holds at most [caps.(e)] packets *)
  | Shared of { total : int; alpha_num : int; alpha_den : int }
      (** one buffer pool of [total] slots shared by all edges, partitioned
          by the Dynamic-Threshold discipline: an arrival to a queue of
          length [L] is admitted iff
          [alpha_den * L < alpha_num * (total - occupancy)] where
          [occupancy] is the total buffered population.  Rejections are tail
          drops. *)

type t = { buffers : buffers; speedup : int }
(** [speedup] is the integer link speed s >= 1: each edge forwards up to [s]
    packets per step (substep 1 stays simultaneous). *)

val unbounded : t
(** The paper's regime: [Unbounded] buffers, speedup 1.  A network created
    with this model is byte-identical in behaviour to one created without a
    capacity model. *)

val make : ?speedup:int -> buffers -> t
(** @raise Invalid_argument on a negative capacity, [speedup < 1], or a
    non-positive alpha. *)

val uniform : ?policy:policy -> ?speedup:int -> int -> t
(** [uniform k] = [make (Uniform { cap = k; policy = Drop_tail })]. *)

val shared : ?alpha_num:int -> ?alpha_den:int -> ?speedup:int -> int -> t
(** [shared b] is a Dynamic-Threshold shared buffer of [b] slots with
    alpha = 1. *)

val is_unbounded : t -> bool
val is_trivial : t -> bool
(** Unbounded {e and} speedup 1 — the regime in which the engine's fast path
    must be untouched. *)

val speedup : t -> int

(** {1 The compiled form the engine consumes} *)

val caps : t -> m:int -> int array
(** Static per-edge capacities for an [m]-edge graph; [max_int] where no
    static cap applies (unbounded and shared models).
    @raise Invalid_argument if [Per_edge] caps disagree with [m]. *)

val drop_head : t -> bool
(** Whether rejected static-cap arrivals displace the service-order head. *)

val shared_total : t -> int
(** The shared pool size, [max_int] unless [Shared]. *)

val alpha : t -> int * int
(** The DT ratio [(num, den)]; [(1, 1)] unless [Shared]. *)

val dt_admits :
  alpha_num:int -> alpha_den:int -> total:int -> occupancy:int -> len:int ->
  bool
(** The Dynamic-Threshold admission test.  [occupancy = total] makes the
    free space 0 and rejects everything, so fullness is subsumed. *)

(** {1 Syntax} *)

val to_string : t -> string
(** The canonical form: [unbounded], [uniform:K], [per-edge:K1,...,Km] or
    [shared:T], with [:drop-head] after a drop-head cap list, [:A/B] after
    a shared total whose alpha is not [1/1], and [@S] when the speedup [S]
    exceeds 1.  For example [uniform:2:drop-head@2] or [shared:256]. *)

val of_string : string -> (t, string) result
(** Inverse of {!to_string}.  Also accepts the defaults written out
    ([:drop-tail], [:1/1], [@1]); surrounding blanks are ignored.  A
    well-formed but invalid model returns {!make}'s message. *)

val check_edges : t -> m:int -> (unit, string) result
(** [Error] iff a [Per_edge] list's length differs from the edge count
    [m]: the one input error {!of_string} cannot see without the graph. *)
