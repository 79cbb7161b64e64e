(** Stability under low injection rates (Section 4).

    Theorem 4.1: with a (w,r) adversary at [r <= 1/(d+1)] — [d] the longest
    route length — and any greedy schedule, no packet stays in one buffer
    longer than [floor (w * r)] steps.  Theorem 4.3 relaxes the condition to
    [r <= 1/d] for {e time-priority} protocols (Def 4.2; FIFO and LIS).
    Observation 4.4 converts an S-initial-configuration run into an
    empty-start run of a [(w°, r°)] adversary, giving Corollaries 4.5/4.6 for
    arbitrary initial configurations.

    Because dwell bounds every buffer's drain time, they also bound buffer
    sizes — by the in-degree argument, at most [(alpha + 1) * floor (w * r)]
    packets ever share a buffer (each arrival window admits one packet per
    incoming edge per step plus injections); the experiments check the dwell
    bound directly, which is the paper's stated invariant. *)

val floor_wr : w:int -> rate:Aqt_util.Ratio.t -> int

val greedy_applicable : rate:Aqt_util.Ratio.t -> d:int -> bool
(** [r <= 1/(d+1)] (Theorem 4.1's hypothesis). *)

val time_priority_applicable : rate:Aqt_util.Ratio.t -> d:int -> bool
(** [r <= 1/d] (Theorem 4.3's hypothesis). *)

val dwell_bound :
  rate:Aqt_util.Ratio.t ->
  w:int ->
  d:int ->
  time_priority:bool ->
  int option
(** The theorem bound [floor (w * r)] when the applicable hypothesis holds,
    [None] otherwise. *)

val converted_window :
  s:int -> w:int -> rate:Aqt_util.Ratio.t -> r_star:Aqt_util.Ratio.t -> int
(** Observation 4.4: [w° = ceil ((s + w + 1) / (r° - r))].
    @raise Invalid_argument unless [r < r°]. *)

val corollary_bound :
  s:int -> w:int -> rate:Aqt_util.Ratio.t -> d:int -> time_priority:bool ->
  int option
(** Corollaries 4.5/4.6: the dwell bound for an S-initial-configuration,
    [floor (w° * r°)] with [r° = 1/(d+1)] (or [1/d]); [None] when
    [r >= r°]. *)

val d_of_routes : int array list -> int
(** Longest route length in a workload. *)

val delivery_bound :
  rate:Aqt_util.Ratio.t -> w:int -> d:int -> time_priority:bool -> int option
(** End-to-end consequence of the dwell bound: a packet leaves its i-th
    buffer within [i * floor(w r)] steps of injection, so every packet is
    delivered within [d * floor(w r)] steps.  [None] when the theorem does
    not apply. *)

val buffer_bound :
  rate:Aqt_util.Ratio.t -> w:int -> d:int -> time_priority:bool -> int option
(** The paper's remark that buffers stay bounded {e independently of network
    parameters}: every packet in the buffer of [e] at time [t] requires [e]
    and — by the dwell bound — was injected within the last
    [(d+1) * floor(w r)] steps, so the buffer never exceeds
    [(floor((d+1) * floor(w r) / w) + 1) * floor(w r)] packets.  [None] when
    the corresponding theorem does not apply. *)

val converted_driver :
  initial:int array array ->
  driver:Aqt_engine.Sim.driver ->
  Aqt_engine.Sim.driver
(** Observation 4.4, executably: the empty-start adversary that injects the
    initial configuration at step 1 and thereafter replays the original
    adversary delayed by one step.  Running it on an empty network yields the
    same packet population as the original S-initial-configuration run, one
    step later; its injection log satisfies the (w°, r°) constraint for any
    r° > r and w° = ceil((S + w + 1) / (r° - r)). *)

val line_burst :
  ?recorder:Aqt_engine.Recorder.t ->
  ?log_injections:bool ->
  ?initial:int ->
  policy:Aqt_engine.Policy_type.t ->
  d:int ->
  w:int ->
  rate:Aqt_util.Ratio.t ->
  horizon:int ->
  steps:int ->
  unit ->
  Aqt_engine.Network.t
(** The certificate workload: a line of [d] edges holding [initial] packets
    (default 0) on its whole route, then the packed (w, rate) burst
    adversary on that route for [horizon] steps.  Runs [steps] steps and
    returns the network for {!verify_run}. *)

type verdict = {
  bound : int;
  max_dwell_seen : int;  (** Completed dwells over the run. *)
  max_pending : int;  (** Unfinished dwells at the end of the run. *)
  ok : bool;  (** Both observed quantities within the bound. *)
}

val verify_run :
  ?s_initial:int ->
  w:int ->
  rate:Aqt_util.Ratio.t ->
  d:int ->
  Aqt_engine.Network.t ->
  verdict option
(** Compares a finished run's dwell statistics to the theorem bound for the
    network's policy ([time_priority] read from the policy).  [None] when no
    theorem applies at this rate.  [s_initial > 0] selects the corollary
    bound. *)
