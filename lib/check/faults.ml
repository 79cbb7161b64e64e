module Fault = Aqt_harness.Fault
module Registry = Aqt_harness.Registry
module Spec = Aqt_harness.Spec
module Cache = Aqt_harness.Cache
module Journal = Aqt_harness.Journal
module Scheduler = Aqt_harness.Scheduler

type action = Fail | Delay of float

type spec = { point : Fault.point; action : action; times : int option }

let fail_once point = { point; action = Fail; times = Some 1 }
let fail_n point n = { point; action = Fail; times = Some n }
let fail_always point = { point; action = Fail; times = None }
let delay point seconds = { point; action = Delay seconds; times = None }

let with_faults specs f =
  let specs = Array.of_list specs in
  let counts = Array.map (fun _ -> Atomic.make 0) specs in
  Fault.install (fun p ->
      Array.iteri
        (fun i s ->
          if s.point = p then begin
            let n = Atomic.fetch_and_add counts.(i) 1 in
            let active =
              match s.times with None -> true | Some k -> n < k
            in
            if active then
              match s.action with
              | Fail ->
                  raise
                    (Fault.Injected
                       (Format.asprintf "injected at %a" Fault.pp_point p))
              | Delay seconds -> Unix.sleepf seconds
          end)
        specs);
  Fun.protect ~finally:Fault.clear f

(* {2 Self-test} *)

type outcome = { case : string; passed : bool; detail : string }

exception Check_failed of string

let require cond fmt =
  Printf.ksprintf
    (fun msg -> if not cond then raise (Check_failed msg))
    fmt

let entry name : Registry.entry =
  {
    name;
    title = name;
    tags = [ "selftest" ];
    spec = [ ("name", Spec.Str name) ];
    run =
      (fun () ->
        let rb = Registry.Rb.create () in
        Registry.Rb.metric rb "max_queue" 1.0;
        Registry.Rb.note rb ("ran " ^ name);
        Registry.Rb.result rb);
  }

(* One scheduler invocation against a fresh cache + journal under [dir].
   jobs:1 keeps fault-hit order deterministic. *)
let run_sched ?timeout ?(retries = 1) ~dir entries =
  let cache = Cache.create ~dir:(Filename.concat dir "cache") in
  let journal = Journal.create (Filename.concat dir "journal.jsonl") in
  let results =
    Scheduler.run ~jobs:1 ?timeout ~retries ~cache ~journal entries
  in
  Journal.close journal;
  (results, cache, Filename.concat dir "journal.jsonl")

let no_temp_files cache =
  Array.for_all
    (fun f -> not (Filename.check_suffix f ".tmp"))
    (Sys.readdir (Cache.dir cache))

let outcome_of (r : Scheduler.task_result) = r.outcome

let case name f =
  Aqt_harness.Fs.with_temp_dir ~prefix:"aqt_check_faults" @@ fun dir ->
  try
    f dir;
    { case = name; passed = true; detail = "ok" }
  with
  | Check_failed msg -> { case = name; passed = false; detail = msg }
  | e -> { case = name; passed = false; detail = Printexc.to_string e }

let cache_write_crash_retries dir =
  (* One crash mid-store: the attempt fails after the run body, the retry
     re-runs and publishes.  Nothing torn is ever visible. *)
  let entries = [ entry "a"; entry "b"; entry "c" ] in
  let results, cache, journal_file =
    with_faults
      [ fail_once Fault.Cache_write ]
      (fun () -> run_sched ~dir entries)
  in
  require
    (List.for_all (fun r -> outcome_of r = Journal.Done) results)
    "expected every task Done";
  let a = List.hd results in
  require (a.attempts = 2) "victim should need 2 attempts, got %d" a.attempts;
  require
    (List.for_all
       (fun (r : Scheduler.task_result) -> r.name = "a" || r.attempts = 1)
       results)
    "non-victims should succeed first try";
  require
    (List.length (Cache.entries cache) = 3)
    "all three results should be cached";
  require (no_temp_files cache) "temp file leaked into the cache";
  let retries =
    List.filter
      (function Journal.Task_retry _ -> true | _ -> false)
      (Journal.load journal_file)
  in
  require (List.length retries = 1) "expected exactly one journalled retry"

let cache_write_crash_permanent dir =
  (* The victim's store crashes on both attempts; it must be reported
     Failed, stay out of the cache, and leave the others untouched.  A
     later fault-free run recovers it. *)
  let entries = [ entry "a"; entry "b"; entry "c" ] in
  let results, cache, _ =
    with_faults
      [ fail_n Fault.Cache_write 2 ]
      (fun () -> run_sched ~dir entries)
  in
  (match List.map outcome_of results with
  | [ Journal.Failed _; Journal.Done; Journal.Done ] -> ()
  | outs ->
      require false "expected [Failed; Done; Done], got [%s]"
        (String.concat "; " (List.map Journal.outcome_to_string outs)));
  require
    (List.length (Cache.entries cache) = 2)
    "only the two successes should be cached";
  require (no_temp_files cache) "temp file leaked into the cache";
  let results2, cache2, _ = run_sched ~dir entries in
  (match List.map outcome_of results2 with
  | [ Journal.Done; Journal.Cached; Journal.Cached ] -> ()
  | outs ->
      require false "recovery run: expected [Done; Cached; Cached], got [%s]"
        (String.concat "; " (List.map Journal.outcome_to_string outs)));
  require
    (List.length (Cache.entries cache2) = 3)
    "recovery run should complete the cache"

let journal_append_degrades dir =
  (* Journaling is observability, not correctness: when every append
     fails, the campaign must still complete and cache its results; the
     journal keeps a readable (here: empty) prefix. *)
  let entries = [ entry "a"; entry "b" ] in
  let cache = Cache.create ~dir:(Filename.concat dir "cache") in
  let journal = Journal.create (Filename.concat dir "journal.jsonl") in
  let results =
    with_faults
      [ fail_always Fault.Journal_append ]
      (fun () ->
        Scheduler.run ~jobs:1 ~retries:1 ~cache ~journal entries)
  in
  require (Journal.degraded journal) "writer should have marked degraded";
  Journal.close journal;
  require
    (List.for_all (fun r -> outcome_of r = Journal.Done) results)
    "tasks must succeed despite the dead journal";
  require
    (List.length (Cache.entries cache) = 2)
    "results must still be cached";
  let events = Journal.load (Filename.concat dir "journal.jsonl") in
  require (events = []) "degraded journal should hold a clean empty prefix"

let task_timeout_posthoc dir =
  (* A hung task (simulated by a delay at the task boundary) overruns its
     budget: reported Timed_out, journalled with the distinct post-hoc
     Task_timeout marker, never cached — and a later, fault-free run
     re-executes it. *)
  let entries = [ entry "slow" ] in
  let results, cache, journal_file =
    with_faults
      [ delay Fault.Task_run 0.05 ]
      (fun () -> run_sched ~timeout:0.01 ~dir entries)
  in
  (match results with
  | [ r ] ->
      require (outcome_of r = Journal.Timed_out)
        "expected Timed_out, got %s"
        (Journal.outcome_to_string (outcome_of r));
      require (r.result = None) "timed-out task must carry no result";
      require (r.attempts = 1) "timeouts are not retried"
  | _ -> require false "expected one result");
  require (Cache.entries cache = []) "timed-out result must not be cached";
  let events = Journal.load journal_file in
  let rec find_timeout = function
    | Journal.Task_timeout { name; limit; duration; _ } :: next :: _ ->
        require (name = "slow") "timeout event names the wrong task";
        require
          (Float.abs (limit -. 0.01) < 1e-6)
          "timeout event carries the wrong budget (got %g)" limit;
        require (duration >= 0.04)
          "timeout event should record the real duration (got %g)" duration;
        (match next with
        | Journal.Task_finish { outcome = Journal.Timed_out; _ } -> ()
        | _ ->
            require false
              "Task_timeout must immediately precede the Timed_out finish")
    | _ :: rest -> find_timeout rest
    | [] -> require false "no Task_timeout event journalled"
  in
  find_timeout events;
  let results2, cache2, _ = run_sched ~timeout:10.0 ~dir entries in
  require
    (List.map outcome_of results2 = [ Journal.Done ])
    "fault-free rerun should execute and succeed";
  require
    (List.length (Cache.entries cache2) = 1)
    "rerun should cache the result"

let fast_task_no_timeout_event dir =
  (* The within-budget path: a quick task under a generous budget produces
     a plain Done finish and no Task_timeout marker. *)
  let entries = [ entry "quick" ] in
  let results, _, journal_file = run_sched ~timeout:10.0 ~dir entries in
  require
    (List.map outcome_of results = [ Journal.Done ])
    "expected a plain Done";
  require
    (not
       (List.exists
          (function Journal.Task_timeout _ -> true | _ -> false)
          (Journal.load journal_file)))
    "no Task_timeout event may appear for a within-budget task"

let task_crash_retries_exhausted dir =
  (* A task that crashes on every attempt: retried as configured, then
     reported Failed with the journal recording each retry; the cache is
     untouched. *)
  let entries = [ entry "crash" ] in
  let results, cache, journal_file =
    with_faults
      [ fail_always Fault.Task_run ]
      (fun () -> run_sched ~retries:2 ~dir entries)
  in
  (match results with
  | [ r ] ->
      (match outcome_of r with
      | Journal.Failed _ -> ()
      | o ->
          require false "expected Failed, got %s"
            (Journal.outcome_to_string o));
      require (r.attempts = 3) "expected 3 attempts, got %d" r.attempts
  | _ -> require false "expected one result");
  require (Cache.entries cache = []) "failed result must not be cached";
  let retries =
    List.filter
      (function Journal.Task_retry _ -> true | _ -> false)
      (Journal.load journal_file)
  in
  require (List.length retries = 2) "expected two journalled retries"

let selftest () =
  [
    case "cache-write-crash-retries" cache_write_crash_retries;
    case "cache-write-crash-permanent" cache_write_crash_permanent;
    case "journal-append-degrades" journal_append_degrades;
    case "task-timeout-posthoc" task_timeout_posthoc;
    case "fast-task-no-timeout-event" fast_task_no_timeout_event;
    case "task-crash-retries-exhausted" task_crash_retries_exhausted;
  ]
