(** The gadget graphs of Section 3 (Figures 3.1 and 3.2).

    A gadget [F_n] has an ingress edge [a], an egress edge [a'], and two
    parallel directed paths of length [n] between them: [e_1..e_n] and
    [f_1..f_n].  Gadgets compose by daisy-chaining — identifying the egress of
    one with the ingress of the next — giving [F_n^M]; the cyclic graph of
    Theorem 3.17 adds a stitching edge [e0] from the head of the last egress
    back to the tail of the first ingress.

    Gadget indices [k] are 1-based ([1..m_gadgets]); within a gadget, path
    edges are 1-based ([1..n]).  [a.(k)] for [k = 0..m_gadgets] are the shared
    ingress/egress edges: gadget [k] has ingress [a.(k-1)] and egress
    [a.(k)]. *)

type t = private {
  graph : Aqt_graph.Digraph.t;
  n : int;
  f_len : int;  (** Length of the f-path; [n] in the paper's symmetric gadget. *)
  m_gadgets : int;
  a : int array;  (** [m_gadgets + 1] shared edges. *)
  e : int array array;  (** [e.(k-1).(i-1)] = edge [e_i] of gadget [k]. *)
  f : int array array;
  e0 : int option;  (** The stitching edge, in cyclic graphs only. *)
}

val fn : n:int -> t
(** A single gadget (Figure 3.1 shows [fn ~n] composed twice). *)

val chain : ?f_len:int -> n:int -> m:int -> unit -> t
(** The daisy chain [F_n^M] with [m >= 1] gadgets.  [f_len] (default [n],
    the paper's symmetric gadget) sets the f-path length, [1 <= f_len <= n]:
    the §5 remark that the chaining technique applies to other gadgets is
    realized here by the asymmetric variant [F_(n,l)] — the f-path only
    carries the part-(3)/(4) long flows and delays them, so shortening it
    preserves the pump analysis (with [l] replacing [n] in the part-(4)
    timing and the drain) while shrinking the graph and the longest route. *)

val cyclic : ?f_len:int -> n:int -> m:int -> unit -> t
(** The graph of Theorem 3.17 / Figure 3.2: [chain] plus the edge [e0]. *)

(** {1 Edge handles} *)

val ingress : t -> k:int -> int
(** Ingress edge of gadget [k] (= [a.(k-1)]). *)

val egress : t -> k:int -> int
(** Egress edge of gadget [k] (= [a.(k)]). *)

val stitch_edge : t -> int
(** @raise Invalid_argument on non-cyclic graphs. *)

(** {1 Route builders}

    All routes below are valid simple paths of the underlying graph; they are
    the routes the Section 3 adversaries inject or create by rerouting. *)

val seed_route : t -> int array
(** [[a_0]] — the single-edge route of initial/fresh packets. *)

val seed : t -> Aqt_engine.Network.t -> int -> unit
(** [seed g net count] places [count] packets tagged ["seed"] on
    {!seed_route}: the initial queue at the ingress of F(1) that the
    startup adversary (Lemma 3.15) consumes. *)

val e_remaining : t -> k:int -> i:int -> int array
(** [e_i, e_(i+1), .., e_n, a_k] — the remaining route required of packets in
    the buffer of [e_i] by the invariant C(S, F(k)) (Def 3.5(2)). *)

val ingress_remaining : t -> k:int -> int array
(** [a_(k-1), f_1, .., f_n, a_k] — the remaining route required of packets in
    the ingress buffer by C(S, F(k)) (Def 3.5(3)). *)

val extension_suffix : t -> k:int -> int array
(** [e'_1, .., e'_n, a''] of gadget [k+1] — the suffix appended to all
    packets of gadget [k] in part (1) of the pump adversary.
    @raise Invalid_argument if [k = m_gadgets] (no next gadget). *)

val startup_extension : t -> int array
(** [e_1, .., e_n, a_1] of gadget 1 — the suffix appended to seed packets in
    part (1) of the startup adversary (Lemma 3.15). *)

val pump_long_route : t -> k:int -> int array
(** [a_(k-1), f_1..f_n, a_k, f'_1..f'_n, a_(k+1)] — part (3) of the pump. *)

val pump_tail_route : t -> k:int -> int array
(** [a_k, f'_1..f'_n, a_(k+1)] — part (4) of the pump. *)

val startup_long_route : t -> int array
(** [a_0, f_1..f_n, a_1] — part (3) of the startup adversary. *)

val stitch_route : t -> int array
(** [a_M, e0, a_0] — the three-edge relay of Lemma 3.16.
    @raise Invalid_argument on non-cyclic graphs. *)

val gadget_edges : t -> k:int -> int list
(** Every edge of gadget [k]: ingress, both paths, egress.  (Shared edges
    belong to two gadgets, as in the paper.) *)

val describe : t -> string
(** One-line structural summary (for experiment output). *)
