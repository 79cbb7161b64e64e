(** Fault-injection policies and the harness degradation self-test.

    {!Aqt_harness.Fault} is the mechanism (a single hook the harness calls
    at its failure-prone boundaries); this module's policy layer composes
    fail-once, fail-N-times, fail-always and delay policies into a hook,
    installed for the duration of a callback.  Counters are atomic, so
    policies behave deterministically even when scheduler domains race
    through fault points.

    {!selftest} is the executable claim that the campaign harness degrades
    gracefully: it builds throwaway campaign directories and drives
    {!Aqt_harness.Scheduler.run} through crash-mid-cache-write,
    journal-append-failure, hung-task-timeout and crashing-task scenarios,
    asserting after each that retries happened as configured, outcomes are
    reported honestly, the journal keeps a readable prefix, and the
    content-addressed cache is never corrupted (no stray temp files, no
    partially-written entries, failed and timed-out results never
    published).  Both the CLI ([aqt_sim check --faults]) and the test
    suite run it. *)

type outcome = { case : string; passed : bool; detail : string }

val selftest : unit -> outcome list
(** Runs every degradation scenario in fresh temp directories (removed
    afterwards).  All [passed] flags true means the harness honoured its
    fault contract. *)
