(** The run loop: drive a network with an adversary for a horizon of steps.

    A {!driver} is the engine-side view of an adversary: a hook called before
    each step (where rerouting happens) and the injections for each step.
    Richer adversary combinators live in [Aqt_adversary]. *)

type driver = {
  before_step : Network.t -> int -> unit;
      (** Called with the step number about to execute; may reroute. *)
  injections_at : Network.t -> int -> Network.injection list;
      (** Injections arriving in the second substep of the given step. *)
  observe_queues : (int array -> int -> unit) option;
      (** Feedback hook: called with the per-edge queue-length vector as it
          stands at the {e start} of the step (before [before_step] and the
          step's forwards), plus the step number — exactly the state the
          stability theorems quantify over, and the only state the
          feedback-routing adversary of arXiv:1812.11113 may react to.
          [None] (the default) skips the snapshot entirely. *)
}

val null_driver : driver
val injections_only : (Network.t -> int -> Network.injection list) -> driver

type stop =
  | Horizon  (** Ran the full requested number of steps. *)
  | Blowup of int  (** A buffer exceeded the blowup threshold. *)
  | Stopped of string  (** Custom predicate fired. *)

type outcome = {
  stop : stop;
  steps_run : int;
  final_in_flight : int;
  max_queue : int;
  max_dwell : int;
  dropped : int;  (** capacity-model drops over the run (0 when unbounded) *)
}

val run :
  ?recorder:Recorder.t ->
  ?blowup:int ->
  ?stop_when:(Network.t -> string option) ->
  net:Network.t ->
  driver:driver ->
  horizon:int ->
  unit ->
  outcome
(** Runs up to [horizon] further steps.  [blowup] stops the run as unstable
    when any buffer ever exceeds that many packets.  [stop_when] is
    evaluated after each step. *)

val run_steps : ?recorder:Recorder.t -> net:Network.t -> driver:driver -> int -> unit
(** [run_steps ~net ~driver n] executes exactly [n] steps with none of
    [run]'s per-step machinery (no blowup cap, stop predicate or outcome
    value) — the batched fast path for steady-state workloads.  Query the
    network afterwards for whatever statistics you need. *)
