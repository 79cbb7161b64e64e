(** In-process acceptance check for the serve daemon.

    [run ()] boots a server on an ephemeral loopback port with a known
    (ρ,σ) admission budget and drives it through four phases with real
    client domains over real sockets:

    + {b admissible load} — aggregate client rate well under ρ, burst
      under σ: every request must answer [200], and the observed
      p50/p99 latencies are reported;
    + {b overload} — clients fire as fast as they can at roughly twice
      the (ρ,σ) budget: some requests are shed with [429], none hangs,
      and the queue-depth high watermark stays ≤ σ;
    + {b warm cache} — the same [/sweep] twice: the first response
      computes ([cached:false]), the repeat must be served from
      {!Aqt_harness.Cache} ([cached:true], cache-hit counter grows);
    + {b graceful drain} — stop is requested while requests are in
      flight: every in-flight client still gets a complete response
      and shutdown finishes.

    Prints one line per phase and returns [true] iff all pass.
    State (cache, no journal) lives in a throwaway temp directory. *)

val run : ?quiet:bool -> unit -> bool

val with_temp_dir : prefix:string -> (string -> 'a) -> 'a
(** [with_temp_dir ~prefix f] creates a fresh directory
    [$TMPDIR/<prefix>-<pid>-<n>], passes it to [f] and removes it with
    everything inside once [f] returns or raises.  The self-tests keep
    their throwaway campaign caches here. *)
