(** Conformance campaign driver: seeds in, shrunk reproducers out.

    Ties the pieces together for the CLI and the test suite: generate a
    scenario per seed ({!Gen}), run it differentially against the engine
    ({!Diff}), shrink any failure to a minimal reproducer ({!Shrink}), and
    render a report whose every failure is replayable from its seed alone
    ([aqt_sim check --seed K]). *)

type failure_report = {
  seed : int;
  original : Diff.failure;  (** What the unshrunk scenario reported. *)
  scenario : Gen.scenario;  (** The shrunk reproducer. *)
  failure : Diff.failure;  (** What the shrunk scenario reports. *)
}

type summary = {
  seeds_run : int;
  failures : failure_report list;  (** Empty = the engine conforms. *)
}

val run_seeds :
  ?families:Gen.family list ->
  ?mutant:Diff.mutant ->
  ?soa_domains:int list ->
  ?base:int ->
  ?progress:(int -> unit) ->
  n:int ->
  unit ->
  summary
(** Seeds [base .. base + n - 1] ([base] defaults to 0); every failure is
    shrunk before being reported.  [progress] is called with the number of
    seeds completed. *)

val find_mutant_failure :
  ?families:Gen.family list ->
  ?soa_domains:int list ->
  ?max_seeds:int ->
  Diff.mutant ->
  (Gen.scenario * Diff.failure) option
(** Scan seeds until the mutant makes one diverge, then shrink it.  This
    is the self-check that the differ can actually catch engine bugs —
    used by the test suite and by [aqt_sim check --mutant-demo].
    [soa_domains] adds struct-of-arrays arms as in {!Diff.run}; the mutant
    corrupts them too. *)

val pp_summary : Format.formatter -> summary -> unit
(** Human-readable report: pass line, or per-failure the seed, the
    failure, the shrunk scenario dump, and the replay command. *)
