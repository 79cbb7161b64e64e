(* Campaign harness: JSON round-trips, spec hashing, the content-addressed
   cache, the crash-tolerant scheduler, and the JSONL journal. *)

module Jsonx = Aqt_util.Jsonx
module Spec = Aqt_harness.Spec
module Registry = Aqt_harness.Registry
module Rb = Aqt_harness.Registry.Rb
module Cache = Aqt_harness.Cache
module Journal = Aqt_harness.Journal
module Scheduler = Aqt_harness.Scheduler

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* Every case runs inside one [Fs.with_temp_dir] root that is removed when
   the case returns; [temp_dir ()] names a fresh directory under it, which
   the code under test creates on demand. *)
let temp_prefix = "aqt_harness_test"
let temp_root = ref ""

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat !temp_root (string_of_int !counter)

let test_case name speed f =
  Alcotest.test_case name speed (fun () ->
      Aqt_harness.Fs.with_temp_dir ~prefix:temp_prefix (fun root ->
          temp_root := root;
          f ()))

(* Runs last: no case left a temp directory of this process behind. *)
let no_temp_dirs_left () =
  let mine = Printf.sprintf "%s-%d-" temp_prefix (Unix.getpid ()) in
  let left =
    List.filter
      (String.starts_with ~prefix:mine)
      (Array.to_list (Sys.readdir (Filename.get_temp_dir_name ())))
  in
  Alcotest.(check (list string)) "temp dirs left" [] left

(* ------------------------------------------------------------------ *)
(* Jsonx                                                               *)
(* ------------------------------------------------------------------ *)

let roundtrip v = Jsonx.of_string (Jsonx.to_string v)

let jsonx_roundtrip () =
  let v =
    Jsonx.Obj
      [
        ("null", Jsonx.Null);
        ("bools", Jsonx.List [ Jsonx.Bool true; Jsonx.Bool false ]);
        ("int", Jsonx.Int (-42));
        ("float", Jsonx.Float 3.25);
        ("big", Jsonx.Float 1.2345678901234567e300);
        ("str", Jsonx.Str "line\nbreak \"quoted\" back\\slash \t tab");
        ("empty_obj", Jsonx.Obj []);
        ("empty_list", Jsonx.List []);
        ("nested", Jsonx.List [ Jsonx.Obj [ ("k", Jsonx.Int 1) ] ]);
      ]
  in
  check_bool "structural equality" true (roundtrip v = v);
  check_bool "idempotent render" true
    (Jsonx.to_string v = Jsonx.to_string (roundtrip v))

let jsonx_parses_escapes () =
  check_bool "unicode escape" true
    (Jsonx.of_string {|"éA"|} = Jsonx.Str "\xc3\xa9A");
  check_bool "whitespace tolerated" true
    (Jsonx.of_string " { \"a\" : [ 1 , 2 ] } "
    = Jsonx.Obj [ ("a", Jsonx.List [ Jsonx.Int 1; Jsonx.Int 2 ]) ]);
  check_bool "nan serializes as null" true
    (Jsonx.to_string (Jsonx.Float Float.nan) = "null")

let jsonx_rejects_garbage () =
  let bad s =
    match Jsonx.of_string s with
    | exception Failure _ -> true
    | _ -> false
  in
  check_bool "trailing garbage" true (bad "1 2");
  check_bool "unterminated string" true (bad {|"abc|});
  check_bool "bare word" true (bad "frue");
  check_bool "unclosed object" true (bad {|{"a": 1|})

(* ------------------------------------------------------------------ *)
(* Spec                                                                *)
(* ------------------------------------------------------------------ *)

let spec_a : Spec.t =
  [
    ("eps", Spec.Ratio (1, 5));
    ("s0", Spec.Int 400);
    ("tags", Spec.List [ Spec.Str "x"; Spec.Str "y" ]);
    ("scale", Spec.Float 1.5);
    ("on", Spec.Bool true);
  ]

let spec_hash_deterministic () =
  let h1 = Spec.hash ~name:"e1" spec_a in
  let h2 = Spec.hash ~name:"e1" (List.rev spec_a) in
  check_string "field order irrelevant" h1 h2;
  check_int "hex digest length" 32 (String.length h1)

let spec_hash_sensitivity () =
  let h = Spec.hash ~name:"e1" spec_a in
  let bump v = Spec.hash ~name:"e1" (("s0", v) :: List.remove_assoc "s0" spec_a) in
  check_bool "value change" true (bump (Spec.Int 401) <> h);
  check_bool "type change" true (bump (Spec.Str "400") <> h);
  check_bool "name change" true (Spec.hash ~name:"e2" spec_a <> h);
  check_bool "salt change" true (Spec.hash ~salt:"v2" ~name:"e1" spec_a <> h)

let spec_rejects_duplicates () =
  check_bool "duplicate key" true
    (match Spec.canonical [ ("a", Spec.Int 1); ("a", Spec.Int 2) ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Registry + result serialization                                     *)
(* ------------------------------------------------------------------ *)

let sample_result () =
  let rb = Rb.create () in
  Rb.note rb "before\n";
  Rb.table rb ~id:"t1" ~headers:[ "a"; "b" ]
    [ [ "1"; "x" ]; [ "2"; "y,z" ] ];
  Rb.note rb "after";
  Rb.metric rb "max_queue" 17.0;
  Rb.trajectory rb
    [ [ ("t", 0.); ("q", 1.) ]; [ ("t", 500.); ("q", 9.) ] ];
  Rb.result rb

let result_json_roundtrip () =
  let r = sample_result () in
  let r' = Registry.result_of_json (Registry.result_to_json r) in
  check_bool "items" true (r'.Registry.items = r.Registry.items);
  check_bool "metrics" true (r'.Registry.metrics = r.Registry.metrics);
  check_bool "trajectory" true (r'.Registry.trajectory = r.Registry.trajectory)

let dummy_entry ?(spec = spec_a) ?(run = fun () -> sample_result ()) name =
  { Registry.name; title = name; tags = []; spec; run }

let registry_basics () =
  let reg = Registry.create () in
  Registry.register reg (dummy_entry "b");
  Registry.register reg (dummy_entry "a");
  check_bool "registration order" true (Registry.names reg = [ "b"; "a" ]);
  check_bool "find hit" true (Registry.find reg "a" <> None);
  check_bool "find miss" true (Registry.find reg "zz" = None);
  check_bool "resolve hit" true ((Registry.resolve reg "a").Registry.name = "a");
  check_bool "resolve miss names the known ids" true
    (match Registry.resolve reg "zz" with
    | exception Failure msg -> msg = {|unknown experiment "zz" (known: b, a)|}
    | _ -> false);
  check_bool "duplicate rejected" true
    (match Registry.register reg (dummy_entry "a") with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)
(* ------------------------------------------------------------------ *)

let cache_roundtrip () =
  let cache = Cache.create ~dir:(temp_dir ()) in
  let entry = dummy_entry "e1" in
  let key = Cache.key entry in
  check_bool "cold miss" true (Cache.lookup cache ~key = None);
  let r = sample_result () in
  Cache.store cache ~key ~name:"e1" ~spec:entry.Registry.spec ~duration:0.25 r;
  (match Cache.lookup cache ~key with
  | None -> Alcotest.fail "expected a hit after store"
  | Some c ->
      check_string "name" "e1" c.Cache.name;
      check_bool "duration" true (c.Cache.duration = 0.25);
      check_bool "result round-trips" true (c.Cache.result = r));
  check_int "entries" 1 (List.length (Cache.entries cache));
  (* A different salt is a different key: the old file is never consulted. *)
  let key' = Cache.key ~salt:"new-code" entry in
  check_bool "salted key differs" true (key' <> key);
  check_bool "salted miss" true (Cache.lookup cache ~key:key' = None);
  check_int "clean removes" 1 (Cache.clean cache);
  check_bool "miss after clean" true (Cache.lookup cache ~key = None)

let cache_corrupt_is_miss () =
  let cache = Cache.create ~dir:(temp_dir ()) in
  let entry = dummy_entry "e1" in
  let key = Cache.key entry in
  Cache.store cache ~key ~name:"e1" ~spec:entry.Registry.spec ~duration:0.1
    (sample_result ());
  let file = Filename.concat (Cache.dir cache) (key ^ ".json") in
  let oc = open_out file in
  output_string oc "{ definitely not json";
  close_out oc;
  check_bool "corrupt file is a miss" true (Cache.lookup cache ~key = None)

let cache_store_over_existing () =
  (* Two domains (or a retry after a mid-store crash) may both publish the
     same key: the second rename lands on an existing file and must
     succeed, leaving a readable entry and no temp debris. *)
  let cache = Cache.create ~dir:(temp_dir ()) in
  let entry = dummy_entry "e1" in
  let key = Cache.key entry in
  let r = sample_result () in
  Cache.store cache ~key ~name:"e1" ~spec:entry.Registry.spec ~duration:0.1 r;
  Cache.store cache ~key ~name:"e1" ~spec:entry.Registry.spec ~duration:0.2 r;
  (match Cache.lookup cache ~key with
  | None -> Alcotest.fail "hit expected after double store"
  | Some c -> check_bool "latest duration wins" true (c.Cache.duration = 0.2));
  check_int "single entry" 1 (List.length (Cache.entries cache));
  let debris =
    Sys.readdir (Cache.dir cache)
    |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".tmp")
  in
  check_bool "no temp files left" true (debris = [])

let cache_crashed_store_publishes_nothing () =
  (* A crash between temp-write and rename (injected at the Cache_write
     fault point) must leave neither a visible entry nor a temp file. *)
  let cache = Cache.create ~dir:(temp_dir ()) in
  let entry = dummy_entry "e1" in
  let key = Cache.key entry in
  Aqt_harness.Fault.install (function
    | Aqt_harness.Fault.Cache_write ->
        raise (Aqt_harness.Fault.Injected "mid-store crash")
    | _ -> ());
  (try
     Fun.protect ~finally:Aqt_harness.Fault.clear (fun () ->
         Cache.store cache ~key ~name:"e1" ~spec:entry.Registry.spec
           ~duration:0.1 (sample_result ());
         Alcotest.fail "store should have raised")
   with Aqt_harness.Fault.Injected _ -> ());
  check_bool "nothing published" true (Cache.lookup cache ~key = None);
  let files = try Sys.readdir (Cache.dir cache) with Sys_error _ -> [||] in
  check_bool "no temp files left" true
    (Array.for_all (fun f -> not (Filename.check_suffix f ".tmp")) files)

let cache_trim_oldest_first () =
  let cache = Cache.create ~dir:(temp_dir ()) in
  let keys =
    List.init 4 (fun i ->
        let name = Printf.sprintf "e%d" i in
        let entry = dummy_entry name in
        let key = Cache.key ~salt:name entry in
        Cache.store cache ~key ~name ~spec:entry.Registry.spec ~duration:0.1
          (sample_result ());
        let file = Filename.concat (Cache.dir cache) (key ^ ".json") in
        (* Deterministic ages: stores in a tight loop could share an mtime. *)
        let at = 1000. +. float_of_int i in
        Unix.utimes file at at;
        (key, (Unix.stat file).Unix.st_size))
  in
  let total = List.fold_left (fun acc (_, s) -> acc + s) 0 keys in
  check_int "a sufficient budget evicts nothing" 0
    (Cache.trim cache ~max_bytes:total);
  let s0 = snd (List.nth keys 0) and s1 = snd (List.nth keys 1) in
  check_int "evicts exactly the two oldest" 2
    (Cache.trim cache ~max_bytes:(total - s0 - s1));
  (match keys with
  | (k0, _) :: (k1, _) :: newer ->
      check_bool "oldest gone" true (Cache.lookup cache ~key:k0 = None);
      check_bool "second oldest gone" true (Cache.lookup cache ~key:k1 = None);
      List.iter
        (fun (k, _) ->
          check_bool "newer entries kept" true (Cache.lookup cache ~key:k <> None))
        newer
  | _ -> assert false);
  check_int "zero budget clears the rest" 2 (Cache.trim cache ~max_bytes:0);
  check_int "idempotent when empty" 0 (Cache.trim cache ~max_bytes:0);
  Alcotest.check_raises "negative budget"
    (Invalid_argument "Cache.trim: max_bytes must be >= 0") (fun () ->
      ignore (Cache.trim cache ~max_bytes:(-1)))

let campaign_trim_leaves_journals () =
  let module Campaign = Aqt_harness.Campaign in
  let dir = temp_dir () in
  let jpath =
    Filename.concat (Filename.concat dir "journal") "run-00000000-000000-1.jsonl"
  in
  let w = Journal.create jpath in
  Journal.write w (Journal.Campaign_start { at = 0.; names = [] });
  Journal.close w;
  let cache = Cache.create ~dir:(Filename.concat dir "cache") in
  let entry = dummy_entry "e1" in
  let key = Cache.key entry in
  Cache.store cache ~key ~name:"e1" ~spec:entry.Registry.spec ~duration:0.1
    (sample_result ());
  let options = { Campaign.default_options with Campaign.dir } in
  check_int "evicts the cache entry" 1 (Campaign.trim options ~max_bytes:0);
  check_bool "cache empty" true (Cache.lookup cache ~key = None);
  check_bool "journal untouched" true (Sys.file_exists jpath)

(* ------------------------------------------------------------------ *)
(* Journal                                                             *)
(* ------------------------------------------------------------------ *)

let journal_roundtrip () =
  let dir = temp_dir () in
  let path = Filename.concat dir "run.jsonl" in
  let w = Journal.create path in
  let events =
    [
      Journal.Campaign_start { at = 100.; names = [ "e1"; "e2" ] };
      Journal.Task_start { name = "e1"; at = 101.; attempt = 1 };
      Journal.Task_retry { name = "e1"; attempt = 1; error = "Failure(\"x\")" };
      Journal.Task_finish
        {
          name = "e1";
          at = 102.5;
          outcome = Journal.Failed "Failure(\"x\")";
          duration = 1.5;
          max_queue = None;
          gc_minor_words = None;
          gc_major_words = None;
          trajectory = [];
        };
      Journal.Task_finish
        {
          name = "e2";
          at = 103.;
          outcome = Journal.Done;
          duration = 0.5;
          max_queue = Some 17.;
          gc_minor_words = Some 1234.;
          gc_major_words = Some 56.;
          trajectory = [ [ ("t", 0.); ("q", 2.) ] ];
        };
      Journal.Task_finish
        {
          name = "e3";
          at = 103.5;
          outcome = Journal.Cached;
          duration = 0.1;
          max_queue = None;
          gc_minor_words = None;
          gc_major_words = None;
          trajectory = [];
        };
      Journal.Campaign_end
        { at = 104.; ran = 1; cached = 1; failed = 1; duration = 4. };
    ]
  in
  List.iter (Journal.write w) events;
  Journal.close w;
  check_bool "parse-back equality" true (Journal.load path = events);
  (* Each line is one standalone JSON object. *)
  let ic = open_in path in
  let lines = ref 0 in
  (try
     while true do
       let line = input_line ic in
       ignore (Jsonx.of_string line);
       incr lines
     done
   with End_of_file -> close_in ic);
  check_int "one event per line" (List.length events) !lines

let journal_snapshot_roundtrip () =
  let ev =
    Journal.Snapshot
      {
        at = 12.5;
        label = "serve.metrics";
        values =
          [ ("serve_requests_total", 42.); ("serve_queue_depth", 3.) ];
      }
  in
  check_bool "json round-trip" true
    (Journal.event_of_json (Journal.event_to_json ev) = ev);
  let ev_empty = Journal.Snapshot { at = 1.; label = "x"; values = [] } in
  check_bool "empty values round-trip" true
    (Journal.event_of_json (Journal.event_to_json ev_empty) = ev_empty);
  let path = Filename.concat (temp_dir ()) "run.jsonl" in
  let w = Journal.create path in
  Journal.write w ev;
  Journal.close w;
  check_bool "file round-trip" true (Journal.load path = [ ev ])

let journal_timeout_event_roundtrip () =
  let ev =
    Journal.Task_timeout
      { name = "slow"; at = 99.5; limit = 0.25; duration = 1.75 }
  in
  check_bool "json round-trip" true
    (Journal.event_of_json (Journal.event_to_json ev) = ev);
  let dir = temp_dir () in
  let path = Filename.concat dir "run.jsonl" in
  let w = Journal.create path in
  Journal.write w ev;
  Journal.close w;
  check_bool "file round-trip" true (Journal.load path = [ ev ])

let journal_degrades_on_append_failure () =
  (* Journaling is observability, not correctness: once an append fails
     the writer goes quiet instead of failing the campaign, and the file
     keeps the readable prefix written before the failure. *)
  let dir = temp_dir () in
  let path = Filename.concat dir "run.jsonl" in
  let w = Journal.create path in
  let before = Journal.Task_start { name = "a"; at = 1.; attempt = 1 } in
  Journal.write w before;
  check_bool "healthy before fault" false (Journal.degraded w);
  Aqt_harness.Fault.install (function
    | Aqt_harness.Fault.Journal_append ->
        raise (Aqt_harness.Fault.Injected "disk full")
    | _ -> ());
  Fun.protect ~finally:Aqt_harness.Fault.clear (fun () ->
      (* Must not raise. *)
      Journal.write w (Journal.Task_start { name = "b"; at = 2.; attempt = 1 }));
  check_bool "degraded after fault" true (Journal.degraded w);
  (* Still a no-op with the hook gone: degradation is sticky. *)
  Journal.write w (Journal.Task_start { name = "c"; at = 3.; attempt = 1 });
  Journal.close w;
  check_bool "prefix preserved" true (Journal.load path = [ before ])

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)
(* ------------------------------------------------------------------ *)

let scheduler_fixture () =
  let dir = temp_dir () in
  let cache = Cache.create ~dir:(Filename.concat dir "cache") in
  let journal = Journal.create (Filename.concat dir "run.jsonl") in
  (cache, journal)

let outcome_of (r : Scheduler.task_result) = r.Scheduler.outcome

let scheduler_cache_flow () =
  let cache, journal = scheduler_fixture () in
  let runs = ref 0 in
  let entry =
    dummy_entry "e1"
      ~run:(fun () ->
        incr runs;
        sample_result ())
  in
  let first = Scheduler.run ~jobs:1 ~cache ~journal [ entry ] in
  check_int "ran once" 1 !runs;
  check_bool "first is Done" true
    (List.map outcome_of first = [ Journal.Done ]);
  let second = Scheduler.run ~jobs:1 ~cache ~journal [ entry ] in
  check_int "no rerun on hit" 1 !runs;
  (match second with
  | [ r ] ->
      check_bool "second is Cached" true (r.Scheduler.outcome = Journal.Cached);
      check_int "cache hit takes 0 attempts" 0 r.Scheduler.attempts;
      check_bool "cached payload equal" true
        (r.Scheduler.result = Some (sample_result ()))
  | _ -> Alcotest.fail "expected one result");
  let third = Scheduler.run ~jobs:1 ~force:true ~cache ~journal [ entry ] in
  check_int "force reruns" 2 !runs;
  check_bool "forced run is Done" true
    (List.map outcome_of third = [ Journal.Done ]);
  Journal.close journal

let scheduler_retry_then_fail () =
  let cache, journal = scheduler_fixture () in
  let attempts = ref 0 in
  let crash =
    dummy_entry "crash"
      ~run:(fun () ->
        incr attempts;
        failwith "synthetic crash")
  in
  let ok = dummy_entry "ok" in
  let results =
    Scheduler.run ~jobs:1 ~retries:1 ~cache ~journal [ crash; ok ]
  in
  check_int "initial + one retry" 2 !attempts;
  (match results with
  | [ c; o ] ->
      check_string "order preserved" "crash" c.Scheduler.name;
      check_bool "failed outcome" true
        (match c.Scheduler.outcome with
        | Journal.Failed msg ->
            (* The raising attempt's message survives into the outcome. *)
            let contains s sub =
              let n = String.length sub in
              let rec go i =
                i + n <= String.length s
                && (String.sub s i n = sub || go (i + 1))
              in
              go 0
            in
            contains msg "synthetic crash"
        | _ -> false);
      check_int "attempts recorded" 2 c.Scheduler.attempts;
      check_bool "no result for failure" true (c.Scheduler.result = None);
      check_bool "sibling still completes" true
        (o.Scheduler.outcome = Journal.Done)
  | _ -> Alcotest.fail "expected two results");
  check_bool "failure not cached" true
    (Cache.lookup cache ~key:(Cache.key crash) = None);
  (* The journal shows the full story: start, retry, start, finish. *)
  Journal.close journal;
  let events = Journal.load (Journal.file journal) in
  let starts =
    List.filter
      (function Journal.Task_start { name = "crash"; _ } -> true | _ -> false)
      events
  in
  let retries =
    List.filter
      (function Journal.Task_retry { name = "crash"; _ } -> true | _ -> false)
      events
  in
  check_int "two starts journalled" 2 (List.length starts);
  check_int "one retry journalled" 1 (List.length retries)

let scheduler_forced_fail_degrades () =
  let cache, journal = scheduler_fixture () in
  let entries = [ dummy_entry "a"; dummy_entry "b"; dummy_entry "c" ] in
  let results =
    Scheduler.run ~jobs:1 ~retries:0 ~fail:[ "b" ] ~cache ~journal entries
  in
  let by_outcome =
    List.map
      (fun r ->
        match r.Scheduler.outcome with
        | Journal.Done -> "done"
        | Journal.Failed _ -> "failed"
        | Journal.Cached -> "cached"
        | Journal.Timed_out -> "timeout")
      results
  in
  check_bool "only b fails, rest complete" true
    (by_outcome = [ "done"; "failed"; "done" ]);
  Journal.close journal

let scheduler_timeout_cooperative () =
  let cache, journal = scheduler_fixture () in
  let slow =
    dummy_entry "slow"
      ~run:(fun () ->
        Unix.sleepf 0.05;
        sample_result ())
  in
  let results = Scheduler.run ~jobs:1 ~timeout:0.01 ~cache ~journal [ slow ] in
  (match results with
  | [ r ] ->
      check_bool "reported timed out" true
        (r.Scheduler.outcome = Journal.Timed_out);
      check_bool "overrun result withheld" true (r.Scheduler.result = None)
  | _ -> Alcotest.fail "expected one result");
  check_bool "timeout not cached" true
    (Cache.lookup cache ~key:(Cache.key slow) = None);
  Journal.close journal

let scheduler_parallel_campaign () =
  let cache, journal = scheduler_fixture () in
  let entries =
    List.init 12 (fun i ->
        let name = Printf.sprintf "t%02d" i in
        dummy_entry name
          ~spec:[ ("i", Spec.Int i) ]
          ~run:(fun () ->
            let rb = Rb.create () in
            Rb.metric rb "i" (float_of_int i);
            Rb.result rb))
  in
  let done_count = ref 0 in
  let mu = Mutex.create () in
  let on_done _ =
    Mutex.lock mu;
    incr done_count;
    Mutex.unlock mu
  in
  let results = Scheduler.run ~jobs:4 ~on_done ~cache ~journal entries in
  check_bool "input order preserved" true
    (List.map (fun r -> r.Scheduler.name) results
    = List.map (fun e -> e.Registry.name) entries);
  check_bool "all done" true
    (List.for_all (fun r -> r.Scheduler.outcome = Journal.Done) results);
  check_int "progress called per task" 12 !done_count;
  check_int "all cached afterwards" 12 (List.length (Cache.entries cache));
  Journal.close journal

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Code salt pinned to trajectories                                    *)
(* ------------------------------------------------------------------ *)

(* Cached results are keyed by [Campaign.code_salt], so a change in what
   the engines compute must come with a salt bump, or campaigns and the
   daemon keep serving results of the old semantics.  Three sub-second
   deterministic runs are digested and pinned next to the salt: the
   space-time scenario (FIFO on the gadget chain, with the startup
   reroutes), a uniform drop-head run under LIS, and a two-domain
   struct-of-arrays run. *)
let pinned_salt = "aqt-campaign-1"
let pinned_digest = "c143de51f24f7fbeedd28fa19f4f0901"

let trajectory_digest () =
  let module Ratio = Aqt_util.Ratio in
  let module Network = Aqt_engine.Network in
  let module Backend = Aqt_engine.Backend in
  let b = Buffer.create 65536 in
  let _, _, st =
    Aqt.Instability.spacetime ~every:4 ~eps:(Ratio.make 1 5) ~seeds:122 ()
  in
  let labels = Aqt_engine.Spacetime.labels st in
  Array.iteri
    (fun e row ->
      Buffer.add_string b labels.(e);
      Array.iter (fun v -> Printf.bprintf b " %g" v) row;
      Buffer.add_char b '\n')
    (Aqt_engine.Spacetime.matrix st);
  let graph, routes = Aqt_graph.Net_spec.(build ~d:4 (Ring 8)) in
  let net =
    Network.create
      ~capacity:(Aqt_capacity.Model.uniform ~policy:Drop_head 2)
      ~graph ~policy:Aqt_policy.Policies.lis ()
  in
  let adv =
    Aqt_adversary.Stock.bernoulli ~prng:(Aqt_util.Prng.create 11)
      ~rate:(Ratio.make 3 10) ~routes ()
  in
  for _ = 1 to 2000 do
    let t = Network.now net + 1 in
    Network.step net (adv.driver.injections_at net t);
    Printf.bprintf b "%d %d %d %d;" (Network.in_flight net)
      (Network.dropped net) (Network.displaced net) (Network.absorbed net)
  done;
  let ring = Aqt_graph.Build.ring 16 in
  let soa =
    Backend.create ~backend:(`Soa 2) ~graph:ring.graph
      ~policy:Aqt_policy.Policies.fifo ()
  in
  Fun.protect ~finally:(fun () -> Backend.shutdown soa) (fun () ->
      let prng = Aqt_util.Prng.create 5 in
      let route k = Array.init 5 (fun i -> ring.edges.((k + i) mod 16)) in
      for k = 0 to 15 do
        ignore (Backend.place_initial soa (route k))
      done;
      for _ = 1 to 500 do
        let injs =
          List.filter_map
            (fun k ->
              if Aqt_util.Prng.int prng 5 = 0 then
                Some { Backend.route = route k; tag = "pin" }
              else None)
            (List.init 16 Fun.id)
        in
        Backend.step soa injs;
        Printf.bprintf b "%d %d;" (Backend.in_flight soa) (Backend.absorbed soa)
      done;
      for e = 0 to 15 do
        List.iter
          (fun (v : Backend.view) -> Printf.bprintf b " %d@%d" v.v_id v.v_hop)
          (Backend.buffer_packets soa e)
      done);
  Digest.to_hex (Digest.string (Buffer.contents b))

let code_salt_pins_trajectories () =
  let salt = Aqt_harness.Campaign.code_salt and digest = trajectory_digest () in
  if (salt, digest) <> (pinned_salt, pinned_digest) then
    Alcotest.failf
      "trajectories changed (salt %S, digest %s; pinned %S, %s): bump \
       Campaign.code_salt and update the pin"
      salt digest pinned_salt pinned_digest

let () =
  Alcotest.run "aqt_harness"
    [
      ( "jsonx",
        [
          test_case "round-trip" `Quick jsonx_roundtrip;
          test_case "escapes" `Quick jsonx_parses_escapes;
          test_case "rejects garbage" `Quick jsonx_rejects_garbage;
        ] );
      ( "spec",
        [
          test_case "hash deterministic" `Quick
            spec_hash_deterministic;
          test_case "hash sensitivity" `Quick spec_hash_sensitivity;
          test_case "duplicate keys" `Quick spec_rejects_duplicates;
        ] );
      ( "registry",
        [
          test_case "result json round-trip" `Quick
            result_json_roundtrip;
          test_case "basics" `Quick registry_basics;
        ] );
      ( "cache",
        [
          test_case "code salt pins trajectories" `Quick
            code_salt_pins_trajectories;
          test_case "round-trip" `Quick cache_roundtrip;
          test_case "corrupt file" `Quick cache_corrupt_is_miss;
          test_case "store over existing" `Quick
            cache_store_over_existing;
          test_case "crashed store publishes nothing" `Quick
            cache_crashed_store_publishes_nothing;
          test_case "trim oldest first" `Quick cache_trim_oldest_first;
          test_case "campaign trim leaves journals" `Quick
            campaign_trim_leaves_journals;
        ] );
      ( "journal",
        [
          test_case "jsonl round-trip" `Quick journal_roundtrip;
          test_case "snapshot event round-trip" `Quick
            journal_snapshot_roundtrip;
          test_case "timeout event round-trip" `Quick
            journal_timeout_event_roundtrip;
          test_case "degrades on append failure" `Quick
            journal_degrades_on_append_failure;
        ] );
      ( "scheduler",
        [
          test_case "cache flow" `Quick scheduler_cache_flow;
          test_case "retry then fail" `Quick scheduler_retry_then_fail;
          test_case "forced failure degrades" `Quick
            scheduler_forced_fail_degrades;
          test_case "cooperative timeout" `Quick
            scheduler_timeout_cooperative;
          test_case "parallel campaign" `Quick
            scheduler_parallel_campaign;
        ] );
      ( "cleanup",
        [ Alcotest.test_case "no temp dirs left" `Quick no_temp_dirs_left ] );
    ]
