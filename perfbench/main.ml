(* One repetition of one benchmark workload, in a fresh process.

     main.exe --workload W --seed N [--trace 0|1] [--setup-only]

   Prints one JSON object on stdout: timings, allocation, the simulated
   statistics and golden-output verdicts, and with --trace 1 the per-layer
   figures derived from the recorded spans (which are also written to
   .bench_out/spans-W.tsv).  perfbench/run.py runs the repetitions and
   turns them into the benchmark's result line. *)

module Jsonx = Aqt_util.Jsonx

let workloads =
  [
    ("thm317", Thm317.run);
    ("fabric", Fabric.run);
    ("conformance", Conformance.run);
    ("serve", Serve.run);
  ]

(* Per-layer figures that come straight from span totals.  Word counts are
   per unit of work, like the end-to-end [minor_words_per_unit]. *)
let span_layers ~units =
  let t = Span.totals () in
  let per_unit x = x /. float_of_int (max 1 units) in
  let pct a q =
    if Array.length a = 0 then 0.
    else begin
      Array.sort Float.compare a;
      let n = Array.length a in
      a.(min (n - 1) (int_of_float (q *. float_of_int n)))
    end
  in
  let steps = Span.durations "engine.step" in
  [
    ("core.phase_setup_s", (t "core.phase_setup").time);
    ("core.phase_setup_words", per_unit (t "core.phase_setup").self_words);
    ("core.phases", float_of_int (t "core.phase_setup").count);
    ("adversary.before_step_s", (t "adversary.before_step").self);
    ("adversary.inject_s", (t "adversary.inject").time);
    ("adversary.inject_words", per_unit (t "adversary.inject").self_words);
    ("engine.step_s", (t "engine.step").time);
    ("engine.step_words", per_unit (t "engine.step").self_words);
    ("engine.step_p50_us", 1e6 *. pct steps 0.50);
    ("engine.step_p99_us", 1e6 *. pct steps 0.99);
    ("graph.build_s", (t "graph.build").time);
    ("workload.compile_s", (t "workload.compile").time);
    ("workload.compile_words", per_unit (t "workload.compile").self_words);
    ("adversary.check_local_s", (t "adversary.check_local").time);
    ( "adversary.check_local_words",
      per_unit (t "adversary.check_local").self_words );
  ]

let () =
  let workload = ref "" and seed = ref 1 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W workload to run");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--trace", Arg.Set_int trace, "0|1 record spans");
      ("--setup-only", Arg.Set Job.setup_only, " stop at the first timed step");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N [--trace 0|1] [--setup-only]";
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
        prerr_endline ("unknown workload " ^ !workload);
        exit 2
  in
  let traced = !trace = 1 in
  let o = run ~traced ~seed:!seed in
  let o =
    if traced then begin
      (try Sys.mkdir Job.out_dir 0o755 with Sys_error _ -> ());
      Span.write (Filename.concat Job.out_dir ("spans-" ^ !workload ^ ".tsv"));
      { o with Job.layers = span_layers ~units:o.Job.units @ o.Job.layers }
    end
    else o
  in
  print_endline
    (Jsonx.to_string (Job.to_json ~workload:!workload ~seed:!seed ~traced o))
