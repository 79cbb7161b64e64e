(* The timed part of one repetition: from the first timed step to the end
   of the work whose output is checked.  Everything before [start] is
   set-up, which run.py times from the instant it spawned this process. *)

module Jsonx = Aqt_util.Jsonx

(* Where repetitions leave spans and the serve workload its cache; run.py
   reads and cleans the same directory. *)
let out_dir = ".bench_out"

type t = {
  mutable t0 : float;
  mutable t1 : float;
  mutable gc0 : Gc.stat;
  mutable gc1 : Gc.stat;
}

let j =
  let st = Gc.quick_stat () in
  { t0 = 0.; t1 = 0.; gc0 = st; gc1 = st }

(* With [setup_only] the process reports the instant set-up ended and
   exits there: run.py takes extra set-up samples this way. *)
let setup_only = ref false

let start () =
  if !setup_only then begin
    print_endline
      (Jsonx.to_string (Jsonx.Obj [ ("t_first", Jsonx.Float (Span.now ())) ]));
    exit 0
  end;
  j.gc0 <- Gc.quick_stat ();
  j.t0 <- Span.now ()

let finish () =
  j.t1 <- Span.now ();
  j.gc1 <- Gc.quick_stat ()

let seconds () = j.t1 -. j.t0

(* What a workload reports about its repetition besides the timings. *)
type outcome = {
  units : int;  (** Work units in the job: steps, seeds or requests. *)
  latencies_ms : float array;
      (** Latency of each unit of output a user waits for. *)
  stats : (string * Jsonx.t) list;
      (** Simulated statistics; identical in every repetition of a seed,
          traced or not. *)
  attempted : int;
  failed : int;
  errors : string list;  (** What went wrong, for the log. *)
  layers : (string * float) list;  (** Per-layer figures of a traced run. *)
  replay_s : float;
      (** Traced time spent only to attribute work (replays of a job's
          parts), which the untraced job does not do. *)
}

let check errors cond fmt =
  Printf.ksprintf (fun msg -> if not cond then errors := msg :: !errors) fmt

let gc_delta f = f j.gc1 -. f j.gc0

let to_json ~workload ~seed ~traced (o : outcome) =
  let num x = Jsonx.Float x in
  let st = Gc.quick_stat () in
  Jsonx.Obj
    [
      ("workload", Jsonx.Str workload);
      ("seed", Jsonx.Int seed);
      ("traced", Jsonx.Bool traced);
      ("t_first", num j.t0);
      ("job_s", num (seconds ()));
      ("units", Jsonx.Int o.units);
      ("minor_words", num (gc_delta (fun s -> s.Gc.minor_words)));
      ("major_words", num (gc_delta (fun s -> s.Gc.major_words)));
      ("minor_collections",
        num (gc_delta (fun s -> float_of_int s.Gc.minor_collections)));
      ("major_collections",
        num (gc_delta (fun s -> float_of_int s.Gc.major_collections)));
      ("peak_heap_mb", num (float_of_int (st.Gc.top_heap_words * 8) /. 1e6));
      ("latencies_ms",
        Jsonx.List (Array.to_list (Array.map num o.latencies_ms)));
      ("stats", Jsonx.Obj o.stats);
      ("attempted", Jsonx.Int o.attempted);
      ("failed", Jsonx.Int o.failed);
      ("errors", Jsonx.List (List.map (fun s -> Jsonx.Str s) o.errors));
      ("layers", Jsonx.Obj (List.map (fun (k, v) -> (k, num v)) o.layers));
      ("replay_s", num o.replay_s);
      ("top_level_s", num (Span.top_level_time ~from:j.t0));
      ("spans", Jsonx.Int (Span.count ()));
    ]
