(* aqt_sim: command-line front end for the adversarial queuing simulator.

   Subcommands:
     params       - derived construction parameters for a given epsilon
     instability  - run the Theorem 3.17 adversary and report seed growth
     stability    - certify the Theorem 4.1/4.3 dwell bound on a workload
     simulate     - free-form run: network x policy x stock adversary
     sweep        - classify a rate grid as stable/growing/blowup *)

open Cmdliner
module Ratio = Aqt_util.Ratio
module Build = Aqt_graph.Build
module Net_spec = Aqt_graph.Net_spec
module Network = Aqt_engine.Network
module Policies = Aqt_policy.Policies
module Tbl = Aqt_util.Tbl

(* ------------------------------------------------------------------ *)
(* Argument converters                                                 *)
(* ------------------------------------------------------------------ *)

(* A converter over a library's parser/printer pair, so every [--help]
   default prints in the syntax the flag accepts. *)
let conv_of parse print =
  Arg.conv
    ( (fun s -> Result.map_error (fun e -> `Msg e) (parse s)),
      fun fmt x -> Format.pp_print_string fmt (print x) )

let ratio_conv = conv_of Ratio.of_string Ratio.to_string

let policy_conv =
  let parse s =
    try Ok (Policies.by_name s)
    with Not_found -> Error (Printf.sprintf "unknown policy %S" s)
  in
  conv_of parse (fun (p : Policies.t) -> p.name)

let net_conv = conv_of (Net_spec.parse ~max_size:max_int) Net_spec.to_string

(* [--backend record|soa] and [--domains N,...], shared by [check] and
   [fabric]: [None] is the record engine alone, [Some ds] adds the
   struct-of-arrays engine at each domain count in [ds]. *)
let soa_domains_term =
  let backend =
    Arg.(
      value
      & opt (enum [ ("record", false); ("soa", true) ]) false
      & info [ "backend" ] ~docv:"ENGINE"
          ~doc:
            "$(b,record) (default) runs the record engine; $(b,soa) runs \
             the struct-of-arrays engine, once per domain count in \
             $(b,--domains) (alongside the record arms under $(b,check)).")
  in
  let domains =
    Arg.(
      value
      & opt (list int) [ 1 ]
      & info [ "domains" ] ~docv:"N,..."
          ~doc:"Domain counts for $(b,--backend soa) (default 1).")
  in
  Term.(const (fun soa ds -> if soa then Some ds else None) $ backend $ domains)

(* ------------------------------------------------------------------ *)
(* params                                                              *)
(* ------------------------------------------------------------------ *)

let eps_arg =
  Arg.(
    value
    & opt ratio_conv (Ratio.make 1 10)
    & info [ "eps" ] ~docv:"EPS" ~doc:"Instability margin: rate is 1/2 + EPS.")

let params_cmd =
  let run eps =
    let p = Aqt.Params.make ~eps () in
    let tbl = Tbl.create ~headers:[ "parameter"; "value"; "meaning" ] in
    Tbl.set_align tbl [ Tbl.Left; Tbl.Right; Tbl.Left ];
    Tbl.add_rows tbl
      [
        [ "eps"; Ratio.to_string eps; "instability margin" ];
        [ "r = 1/2+eps"; Ratio.to_string p.rate; "injection rate" ];
        [ "n"; Tbl.fi p.n; "gadget path length (Appendix)" ];
        [ "S0"; Tbl.fi p.s0; "minimum seed queue (Appendix)" ];
        [
          "2(1-R_n)";
          Tbl.ff (Aqt.Params.pump_factor ~r:p.r ~n:p.n);
          "exact queue growth per pump";
        ];
        [
          "M (theorem)";
          Tbl.fi (Aqt.Params.chain_length ~eps:(Ratio.to_float eps) ());
          "gadgets by the paper's pessimistic bound";
        ];
        [
          "M (actual)";
          Tbl.fi (Aqt.Params.chain_length_actual ~r:p.r ~n:p.n ());
          "gadgets by the exact growth model";
        ];
      ];
    Tbl.print tbl
  in
  Cmd.v (Cmd.info "params" ~doc:"Show derived construction parameters")
    Term.(const run $ eps_arg)

(* ------------------------------------------------------------------ *)
(* instability                                                         *)
(* ------------------------------------------------------------------ *)

let instability_cmd =
  let cycles =
    Arg.(value & opt int 3 & info [ "cycles" ] ~doc:"Full adversary cycles.")
  in
  let s0 = Arg.(value & opt (some int) None & info [ "s0" ] ~doc:"Override S0.") in
  let m = Arg.(value & opt (some int) None & info [ "gadgets"; "m" ] ~doc:"Override M.") in
  let validate =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:"Log every injection and check the rate-r constraint (Lemma 3.3).")
  in
  let save_log =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-log" ] ~docv:"FILE"
          ~doc:
            "Write the run's injection log (with initial routes) to FILE for\n\
             later replay with the `replay' subcommand.")
  in
  let run eps cycles s0 m validate save_log =
    let cfg =
      Aqt.Instability.config ~eps ?s0 ?m ~cycles
        ~log_injections:(validate || save_log <> None)
        ()
    in
    Printf.printf "r = %s, n = %d, S0 = %d, M = %d, seed = %d\n\n"
      (Ratio.to_string cfg.params.rate)
      cfg.params.n cfg.params.s0 cfg.m cfg.seed;
    let res = Aqt.Instability.run cfg in
    let tbl = Tbl.create ~headers:[ "cycle"; "start step"; "seed"; "growth" ] in
    Array.iteri
      (fun i (s : Aqt.Instability.cycle_stat) ->
        Tbl.add_row tbl
          [
            Tbl.fi s.cycle;
            Tbl.fi s.start_step;
            Tbl.fi s.seed;
            (if i = 0 then "-" else Tbl.ff res.growth.(i - 1) ^ "x");
          ])
      res.stats;
    Tbl.print tbl;
    Printf.printf "steps: %d, max queue: %d, reroutes: %d\n"
      res.outcome.steps_run res.outcome.max_queue
      (Network.reroute_count res.net);
    if validate then begin
      let mg = Aqt_graph.Digraph.n_edges res.gadget.graph in
      match
        Aqt_adversary.Rate_check.check_rate ~m:mg ~rate:cfg.params.rate
          (Network.injection_log res.net)
      with
      | Ok () -> print_endline "rate-r constraint: LEGAL (Lemma 3.3 verified)"
      | Error v ->
          Format.printf "rate-r constraint: VIOLATED %a@."
            Aqt_adversary.Rate_check.pp_violation v
    end;
    match save_log with
    | None -> ()
    | Some file ->
        let meta =
          [
            ("n", string_of_int cfg.params.n);
            ("m", string_of_int cfg.m);
            ("rate", Ratio.to_string cfg.params.rate);
          ]
        in
        Aqt_adversary.Log_io.save file
          (Aqt_adversary.Log_io.of_network ~meta res.net);
        Printf.printf "injection log written to %s\n" file
  in
  Cmd.v
    (Cmd.info "instability"
       ~doc:"Run the Theorem 3.17 adversary: FIFO unstable at 1/2+eps")
    Term.(const run $ eps_arg $ cycles $ s0 $ m $ validate $ save_log)

(* ------------------------------------------------------------------ *)
(* stability                                                           *)
(* ------------------------------------------------------------------ *)

let policy_arg =
  Arg.(
    value
    & opt policy_conv Policies.fifo
    & info [ "policy" ] ~docv:"POLICY"
        ~doc:"Queuing policy (fifo|lifo|lis|nis|sis|ftg|ntg|ffs|nts).")

let horizon_arg =
  Arg.(value & opt int 20_000 & info [ "horizon" ] ~doc:"Steps to simulate.")

let stability_cmd =
  let d = Arg.(value & opt int 5 & info [ "hops"; "d" ] ~doc:"Route length.") in
  let w = Arg.(value & opt int 60 & info [ "window"; "w" ] ~doc:"Adversary window.") in
  let rate =
    Arg.(
      value
      & opt (some ratio_conv) None
      & info [ "rate" ] ~doc:"Injection rate (default 1/d or 1/(d+1)).")
  in
  let run policy d w rate horizon =
    let rate =
      match rate with
      | Some r -> r
      | None ->
          if policy.Aqt_engine.Policy_type.time_priority then Ratio.make 1 d
          else Ratio.make 1 (d + 1)
    in
    let net =
      Aqt.Stability.line_burst ~log_injections:true ~policy ~d ~w ~rate
        ~horizon ~steps:(horizon + w) ()
    in
    let legal =
      Aqt_adversary.Rate_check.check_windowed ~m:d ~w ~rate
        (Network.injection_log net)
      = Ok ()
    in
    Printf.printf
      "policy=%s d=%d w=%d rate=%s | (w,r)-legal=%b max_queue=%d\n" policy.name
      d w (Ratio.to_string rate) legal
      (Network.max_queue_ever net);
    match Aqt.Stability.verify_run ~w ~rate ~d net with
    | Some v ->
        Printf.printf
          "dwell bound floor(w*r) = %d, observed max dwell = %d -> %s\n"
          v.bound v.max_dwell_seen
          (if v.ok then "CERTIFIED" else "VIOLATION (bug)")
    | None ->
        Printf.printf
          "no theorem applies at rate %s (observed max dwell %d)\n"
          (Ratio.to_string rate) (Network.max_dwell net)
  in
  Cmd.v
    (Cmd.info "stability"
       ~doc:"Certify the Theorem 4.1/4.3 dwell bound on a burst workload")
    Term.(const run $ policy_arg $ d $ w $ rate $ horizon_arg)

(* ------------------------------------------------------------------ *)
(* simulate                                                            *)
(* ------------------------------------------------------------------ *)

let net_arg =
  Arg.(
    value & opt net_conv (Net_spec.Ring 8)
    & info [ "network" ] ~docv:"NET" ~doc:"Topology: line:K or ring:K.")

let hops_arg =
  Arg.(value & opt int 4 & info [ "hops"; "d" ] ~doc:"Route length.")

let simulate_cmd =
  let rate =
    Arg.(
      value & opt ratio_conv (Ratio.make 1 4)
      & info [ "rate" ] ~doc:"Aggregate per-edge injection rate.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let stochastic =
    Arg.(value & flag & info [ "stochastic" ] ~doc:"Bernoulli instead of bursts.")
  in
  let run network policy d rate horizon seed stochastic =
    let arrivals =
      if stochastic then Aqt.Sweep.Bernoulli seed else Aqt.Sweep.Bursts
    in
    let { Aqt.Sweep.net; adversary = adv; outcome; n_routes = nroutes } =
      Aqt.Sweep.simulate ~network ~d ~policy ~rate ~arrivals ~horizon ()
    in
    Printf.printf
      "%s on %d-edge graph, %d routes of length <= %d, rate %s (%s)\n"
      policy.Aqt_engine.Policy_type.name
      (Aqt_graph.Digraph.n_edges (Network.graph net))
      nroutes d (Ratio.to_string rate) adv.name;
    Printf.printf
      "steps=%d injected=%d absorbed=%d in-flight=%d\n" outcome.steps_run
      (Network.injected_count net)
      (Network.absorbed net) (Network.in_flight net);
    Printf.printf "max queue=%d max dwell=%d mean latency=%.2f\n"
      (Network.max_queue_ever net)
      (Network.max_dwell net)
      (Network.delivered_latency_mean net)
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Free-form simulation run")
    Term.(
      const run $ net_arg $ policy_arg $ hops_arg $ rate $ horizon_arg $ seed
      $ stochastic)

(* ------------------------------------------------------------------ *)
(* sweep                                                               *)
(* ------------------------------------------------------------------ *)

let sweep_cmd =
  let rates =
    Arg.(
      value
      & opt (list ratio_conv)
          [ Ratio.make 1 8; Ratio.make 1 4; Ratio.make 1 2; Ratio.make 3 4 ]
      & info [ "rates" ] ~doc:"Comma-separated rates to test.")
  in
  let run network d rates horizon =
    let tbl = Tbl.create ~headers:Aqt.Sweep.grid_headers in
    Tbl.add_rows tbl
      (Aqt.Sweep.grid ~network ~d ~policies:Policies.all_deterministic ~rates
         ~horizon ());
    Tbl.print tbl
  in
  Cmd.v
    (Cmd.info "sweep" ~doc:"Classify a policy x rate grid as stable/growing")
    Term.(const run $ net_arg $ hops_arg $ rates $ horizon_arg)

(* ------------------------------------------------------------------ *)
(* plan                                                                *)
(* ------------------------------------------------------------------ *)

let plan_cmd =
  let s_arg =
    Arg.(value & opt int 1000 & info [ "queue"; "s" ] ~doc:"The S of C(S, F).")
  in
  let run eps s =
    let params = Aqt.Params.make ~eps () in
    let g = Aqt.Gadget.cyclic ~n:params.n ~m:2 () in
    let graph = g.graph in
    let route_str route =
      let labels = Array.map (Aqt_graph.Digraph.label graph) route in
      if Array.length labels <= 5 then
        String.concat ">" (Array.to_list labels)
      else
        Printf.sprintf "%s>..>%s (%d edges)" labels.(0)
          labels.(Array.length labels - 1) (Array.length labels)
    in
    let flow_rows flows =
      List.map
        (fun f ->
          [
            Aqt_adversary.Flow.tag f;
            route_str (Aqt_adversary.Flow.route f);
            Tbl.fi (Aqt_adversary.Flow.start f);
            Tbl.fi (Aqt_adversary.Flow.stop f);
            Tbl.fi (Aqt_adversary.Flow.total f);
          ])
        flows
    in
    let show title rows =
      Printf.printf "%s\n" title;
      let tbl =
        Tbl.create ~headers:[ "flow"; "route"; "start"; "stop"; "packets" ]
      in
      Tbl.set_align tbl [ Tbl.Left; Tbl.Left; Tbl.Right; Tbl.Right; Tbl.Right ];
      Tbl.add_rows tbl rows;
      Tbl.print tbl;
      print_newline ()
    in
    Printf.printf
      "Adversary schedules for eps=%s (r=%s, n=%d), measured queue S=%d,\n\
       phase-relative times (start of phase = step 1):\n\n"
      (Ratio.to_string eps)
      (Ratio.to_string params.rate)
      params.n s;
    let sp = Aqt.Startup.plan ~params ~gadget:g ~start:1 ~total_seed:(2 * s) in
    show
      (Printf.sprintf
         "Lemma 3.15 startup (duration %d, predicted S' = %d; plus a rate-r \
          stream of %d short+long packets):"
         sp.duration sp.s_target (Aqt_adversary.Flow.total sp.stream_counter))
      (flow_rows sp.short_flows);
    let pp =
      Aqt.Pump.plan ~params ~gadget:g ~k:1 ~start:1 ~total_old:(2 * s)
        ~s_ingress:s
    in
    show
      (Printf.sprintf
         "Lemma 3.6 pump (duration %d, predicted S' = %d, X = %d):" pp.duration
         pp.s_target pp.x)
      (flow_rows pp.flows);
    let st =
      Aqt.Stitch.plan ~rate:params.rate ~relay:(Aqt.Gadget.stitch_route g)
        ~start:1 ~s
    in
    show
      (Printf.sprintf
         "Lemma 3.16 stitch (duration %d = S + rS + r^2S; fresh seeds r^3 S = \
          %d):"
         st.duration st.r3s)
      (flow_rows st.flows)
  in
  Cmd.v
    (Cmd.info "plan"
       ~doc:"Print the Lemma 3.15/3.6/3.16 adversary schedules for a given S")
    Term.(const run $ eps_arg $ s_arg)

(* ------------------------------------------------------------------ *)
(* fluid                                                               *)
(* ------------------------------------------------------------------ *)

let fluid_cmd =
  let s_arg =
    Arg.(
      value & opt int 1000
      & info [ "queue"; "s" ] ~doc:"Ingress population S of C(S, F).")
  in
  let run eps s =
    let params = Aqt.Params.make ~eps () in
    let p =
      Aqt.Fluid.pump_profile ~r:params.r ~n:params.n ~total_old:(2 * s)
    in
    Printf.printf
      "Fluid trajectories of one pump (Claims 3.9-3.11) at r=%s, n=%d, 2S=%d:\n\n"
      (Ratio.to_string params.rate)
      params.n (2 * s);
    let tbl =
      Tbl.create
        ~headers:
          [ "i"; "R_i"; "t_i"; "peak queue"; "peak at"; "old left at 2S+i" ]
    in
    for i = 1 to params.n do
      let idx = i - 1 in
      Tbl.add_row tbl
        [
          Tbl.fi i;
          Tbl.ff ~dec:4 p.ri.(idx);
          Tbl.ff ~dec:0 p.ti.(idx);
          Tbl.ff ~dec:0 p.peak_queue.(idx);
          Tbl.ff ~dec:0 p.peak_time.(idx);
          Tbl.ff ~dec:0 p.final_old.(idx);
        ]
    done;
    Tbl.print tbl;
    Printf.printf
      "S' = 2S(1-R_n) = %.0f; old packets past the egress by 2S+n: %.0f\n\
       (run `bench/main.exe e14' to compare against the discrete simulation)\n"
      p.s' p.crossed_egress
  in
  Cmd.v
    (Cmd.info "fluid"
       ~doc:"Evaluate the paper's fluid pump analysis for a given S")
    Term.(const run $ eps_arg $ s_arg)

(* ------------------------------------------------------------------ *)
(* replay                                                              *)
(* ------------------------------------------------------------------ *)

let replay_cmd =
  let file =
    Arg.(
      required
      & opt (some file) None
      & info [ "log" ] ~docv:"FILE" ~doc:"Injection log (from --save-log).")
  in
  let settle =
    Arg.(value & opt int 5000 & info [ "settle" ] ~doc:"Idle steps at the end.")
  in
  let run file policy settle =
    let bad fmt =
      Printf.ksprintf
        (fun msg ->
          Printf.eprintf "replay: %s: %s\n" file msg;
          exit 2)
        fmt
    in
    let log =
      try Aqt_adversary.Log_io.load file with Failure msg -> bad "%s" msg
    in
    let meta_int k =
      match Aqt_adversary.Log_io.meta_value log k with
      | None -> bad "log has no %S metadata" k
      | Some v -> (
          match int_of_string_opt v with
          | Some i -> i
          | None -> bad "metadata %s: expected an integer, got %S" k v)
    in
    let n = meta_int "n" and m = meta_int "m" in
    let rate =
      match Aqt_adversary.Log_io.meta_value log "rate" with
      | None -> Ratio.one
      | Some v -> (
          match Ratio.of_string v with
          | Ok r -> r
          | Error e -> bad "metadata rate: %s" e)
    in
    let gadget =
      try Aqt.Gadget.cyclic ~n ~m () with Invalid_argument msg -> bad "%s" msg
    in
    let results =
      Aqt.Baselines.replay_against ~initial:log.initial ~graph:gadget.graph
        ~rate ~log:log.log ~policies:[ policy ] ~settle ()
    in
    List.iter
      (fun (r : Aqt.Baselines.replay_result) ->
        Printf.printf
          "%s on %s: max_queue=%d backlog=%d absorbed=%d max_dwell=%d\n"
          r.policy
          (Aqt.Gadget.describe gadget)
          r.max_queue r.backlog r.absorbed r.max_dwell)
      results
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Replay a recorded injection log under any policy (Lemma 3.3's A')")
    Term.(const run $ file $ policy_arg $ settle)

(* ------------------------------------------------------------------ *)
(* workloads / spacetime                                               *)
(* ------------------------------------------------------------------ *)

let workloads_cmd =
  let run () =
    let tbl =
      Tbl.create ~headers:[ "name"; "edges"; "routes"; "d"; "max overlap" ]
    in
    List.iter
      (fun (s : Aqt_workload.Workloads.t) ->
        Tbl.add_row tbl
          [
            s.name;
            Tbl.fi (Aqt_graph.Digraph.n_edges s.graph);
            Tbl.fi (List.length s.routes);
            Tbl.fi s.d;
            Tbl.fi (Aqt_workload.Workloads.max_overlap s);
          ])
      (Aqt_workload.Workloads.standard_grid ());
    Tbl.print tbl
  in
  Cmd.v (Cmd.info "workloads" ~doc:"List the standard workload scenarios")
    Term.(const run $ const ())

let spacetime_cmd =
  let seeds = Arg.(value & opt int 122 & info [ "seeds" ] ~doc:"Seed packets.") in
  let run eps seeds =
    let _, _, st = Aqt.Instability.spacetime ~eps ~seeds () in
    Aqt_engine.Spacetime.print st
  in
  Cmd.v
    (Cmd.info "spacetime"
       ~doc:"Heat map of a startup+pump run on a two-gadget chain")
    Term.(const run $ eps_arg $ seeds)

(* ------------------------------------------------------------------ *)
(* campaign: cached, journalled orchestration of the experiment suite  *)
(* ------------------------------------------------------------------ *)

let campaign_cmd =
  let module Campaign = Aqt_harness.Campaign in
  let dir_arg =
    Arg.(
      value
      & opt string Campaign.default_options.dir
      & info [ "dir" ] ~docv:"DIR" ~doc:"Campaign state directory.")
  in
  let only_arg =
    Arg.(
      value
      & opt (list string) []
      & info [ "only" ] ~docv:"IDS"
          ~doc:"Comma-separated experiment ids (default: every registered \
                experiment; see `main.exe list`).")
  in
  let registry () = Aqt_experiments.registry () in
  let run_cmd =
    let force =
      Arg.(
        value & flag
        & info [ "force" ] ~doc:"Re-run even when a cached result exists.")
    in
    let jobs =
      Arg.(
        value
        & opt (some int) None
        & info [ "jobs"; "j" ] ~docv:"N"
            ~doc:"Worker domains (default: cores - 1).")
    in
    let timeout =
      Arg.(
        value
        & opt (some float) None
        & info [ "timeout" ] ~docv:"SECONDS"
            ~doc:"Per-experiment wall-clock budget.  Cooperative: an \
                  overrunning experiment finishes its run but is reported \
                  timed-out and its result is not cached.")
    in
    let retries =
      Arg.(
        value
        & opt int Campaign.default_options.retries
        & info [ "retries" ] ~docv:"N"
            ~doc:"Re-attempts after a crashed experiment.")
    in
    let fail =
      Arg.(
        value
        & opt (list string) []
        & info [ "fail" ] ~docv:"IDS"
            ~doc:"Force these experiments to raise (graceful-degradation \
                  check: they report Failed while the campaign completes).")
    in
    let quiet =
      Arg.(
        value & flag
        & info [ "quiet"; "q" ] ~doc:"No progress lines or summary table.")
    in
    let run dir only force jobs timeout retries fail quiet =
      (match jobs with
      | Some j when j < 1 ->
          Printf.eprintf "aqt_sim campaign: --jobs must be >= 1\n";
          exit 2
      | _ -> ());
      let options =
        {
          Campaign.default_options with
          dir;
          only;
          force;
          jobs;
          timeout;
          retries;
          fail;
          quiet;
        }
      in
      match Campaign.run ~registry:(registry ()) options with
      | { Campaign.failed = 0; _ } -> ()
      | _ -> exit 1
      | exception Failure msg ->
          Printf.eprintf "aqt_sim campaign: %s\n" msg;
          exit 2
    in
    Cmd.v
      (Cmd.info "run"
         ~doc:
           "Run experiments through the campaign scheduler: cached results \
            are served from $(b,DIR)/cache, the rest fan out across domains, \
            and every event lands in a JSONL journal under $(b,DIR)/journal.")
      Term.(
        const run $ dir_arg $ only_arg $ force $ jobs $ timeout $ retries
        $ fail $ quiet)
  in
  let status_cmd =
    let run dir only =
      let options = { Campaign.default_options with dir; only } in
      match Campaign.status ~registry:(registry ()) options with
      | () -> ()
      | exception Failure msg ->
          Printf.eprintf "aqt_sim campaign: %s\n" msg;
          exit 2
    in
    Cmd.v
      (Cmd.info "status"
         ~doc:
           "Per experiment: is a cached result present for the current spec \
            and code salt, how old is it, and how long did it take.")
      Term.(const run $ dir_arg $ only_arg)
  in
  let clean_cmd =
    let max_bytes =
      Arg.(
        value
        & opt (some int) None
        & info [ "max-bytes" ] ~docv:"BYTES"
            ~doc:
              "Instead of deleting everything, evict the oldest cached \
               results until the cache payload is at most $(docv) (journals \
               are left alone).")
    in
    let run dir max_bytes =
      match max_bytes with
      | None ->
          let n = Campaign.clean { Campaign.default_options with dir } in
          Printf.printf "removed %d file(s) under %s\n" n dir
      | Some max_bytes when max_bytes < 0 ->
          Printf.eprintf "aqt_sim campaign: --max-bytes must be >= 0\n";
          exit 2
      | Some max_bytes ->
          let n =
            Campaign.trim { Campaign.default_options with dir } ~max_bytes
          in
          Printf.printf "evicted %d cache file(s) under %s\n" n dir
    in
    Cmd.v
      (Cmd.info "clean"
         ~doc:
           "Delete cached results and journals under DIR, or with \
            $(b,--max-bytes) evict oldest-first down to a size budget.")
      Term.(const run $ dir_arg $ max_bytes)
  in
  Cmd.group
    (Cmd.info "campaign"
       ~doc:
         "Manifest-driven experiment campaigns with result caching, \
          crash-tolerant scheduling and structured run journals")
    [ run_cmd; status_cmd; clean_cmd ]

(* ------------------------------------------------------------------ *)
(* report: regenerate docs/report from the campaign cache              *)
(* ------------------------------------------------------------------ *)

let report_cmd =
  let module Campaign = Aqt_harness.Campaign in
  let module Report = Aqt_report.Report in
  let out_arg =
    Arg.(
      value
      & opt string (Filename.concat "docs" "report")
      & info [ "out" ] ~docv:"DIR" ~doc:"Output directory for SVGs + index.md.")
  in
  let dir_arg =
    Arg.(
      value
      & opt string Campaign.default_options.dir
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Campaign state directory (cache + journals).")
  in
  let only_arg =
    Arg.(
      value
      & opt (list string) []
      & info [ "only" ] ~docv:"IDS"
          ~doc:"Comma-separated figure ids (default: all; see --list).")
  in
  let list_arg =
    Arg.(
      value & flag
      & info [ "list" ] ~doc:"List figure ids and exit (nothing is run).")
  in
  let run out dir only list =
    if list then
      List.iter
        (fun (f : Report.figure) -> Printf.printf "%-14s %s\n" f.id f.title)
        (Report.default_figures ())
    else begin
      let options = { Campaign.default_options with dir; quiet = true } in
      match
        Report.generate ~only ~registry:(Aqt_experiments.registry ())
          ~options ~out ()
      with
      | paths ->
          Printf.printf "wrote %d file(s) under %s\n" (List.length paths) out
      | exception Failure msg ->
          Printf.eprintf "aqt_sim report: %s\n" msg;
          exit 2
    end
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Regenerate the experiment report (docs/report): deterministic SVG \
          figures from the campaign cache, inline seeded simulations and the \
          committed loadgen journal, plus a Markdown index.  Byte-identical \
          across runs; CI diffs the output against the committed copy.")
    Term.(const run $ out_arg $ dir_arg $ only_arg $ list_arg)

(* ------------------------------------------------------------------ *)
(* serve: the rate-admission simulation service                        *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let module Server = Aqt_serve.Server in
  let module Selftest = Aqt_serve.Selftest in
  let dflt = Server.default_config in
  let port =
    Arg.(
      value & opt int dflt.Server.port
      & info [ "port"; "p" ] ~docv:"PORT"
          ~doc:"TCP port to listen on (0 picks an ephemeral port).")
  in
  let host =
    Arg.(
      value & opt string dflt.Server.host
      & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address.")
  in
  let workers =
    Arg.(
      value & opt int dflt.Server.workers
      & info [ "workers"; "j" ] ~docv:"N" ~doc:"Worker domains.")
  in
  let rate =
    Arg.(
      value & opt float dflt.Server.rho
      & info [ "rate" ] ~docv:"RHO"
          ~doc:
            "Admission rate rho in requests/second: over any interval t at \
             most rho*t + BURST requests are admitted, the rest are shed \
             with 429.")
  in
  let burst =
    Arg.(
      value & opt int dflt.Server.sigma
      & info [ "burst" ] ~docv:"SIGMA"
          ~doc:
            "Burst budget sigma: token-bucket depth and the worker queue's \
             capacity, so the queue depth is bounded by SIGMA by \
             construction.")
  in
  let dir =
    Arg.(
      value & opt string dflt.Server.campaign_dir
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Campaign state directory (result cache + journals).")
  in
  let snapshot_every =
    Arg.(
      value & opt float dflt.Server.snapshot_every
      & info [ "snapshot-every" ] ~docv:"SECONDS"
          ~doc:"Metrics journal snapshot period (0 disables).")
  in
  let cache_max_bytes =
    Arg.(
      value
      & opt (some int) None
      & info [ "cache-max-bytes" ] ~docv:"BYTES"
          ~doc:
            "Trim the result cache oldest-first to this size budget on \
             every snapshot tick.")
  in
  let no_journal =
    Arg.(value & flag & info [ "no-journal" ] ~doc:"Do not write a journal.")
  in
  let sweep_rate =
    Arg.(
      value & opt float dflt.Server.sweep_rho
      & info [ "sweep-rate" ] ~docv:"RHO"
          ~doc:
            "Separate admission rate for /sweep so grid computations cannot \
             starve cheap endpoints (<= 0 means RHO/10).")
  in
  let sweep_burst =
    Arg.(
      value & opt int dflt.Server.sweep_sigma
      & info [ "sweep-burst" ] ~docv:"SIGMA"
          ~doc:"Burst budget of the /sweep bucket (<= 0 derives from BURST).")
  in
  let client_rate =
    Arg.(
      value & opt float dflt.Server.client_rho
      & info [ "client-rate" ] ~docv:"RHO"
          ~doc:
            "Per-client admission rate, keyed by peer address or \
             $(b,--client-key-header) (<= 0 means RHO).")
  in
  let client_burst =
    Arg.(
      value & opt int dflt.Server.client_sigma
      & info [ "client-burst" ] ~docv:"SIGMA"
          ~doc:"Per-client burst budget (<= 0 means BURST).")
  in
  let client_key_header =
    Arg.(
      value & opt string dflt.Server.client_key_header
      & info [ "client-key-header" ] ~docv:"NAME"
          ~doc:
            "Request header naming the client for per-client admission; \
             empty keys on the peer address.")
  in
  let max_conns =
    Arg.(
      value & opt int dflt.Server.max_conns
      & info [ "max-conns" ] ~docv:"N"
          ~doc:"Concurrent connection cap; excess accepts get 503.")
  in
  let pipeline =
    Arg.(
      value & opt int dflt.Server.max_pipeline
      & info [ "pipeline" ] ~docv:"N"
          ~doc:
            "Outstanding pipelined requests per connection before the event \
             loop stops reading from it (TCP backpressure).")
  in
  let idle_timeout =
    Arg.(
      value & opt float dflt.Server.idle_timeout
      & info [ "idle-timeout" ] ~docv:"SECONDS"
          ~doc:"Idle keep-alive connection expiry.")
  in
  let selftest =
    Arg.(
      value & flag
      & info [ "selftest" ]
          ~doc:
            "Boot a throwaway server on an ephemeral port, drive it through \
             admissible load, overload, cache-warm and graceful-drain \
             phases, and exit 0 iff all pass.")
  in
  let quiet = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No chatter.") in
  let run port host workers rate burst dir snapshot_every cache_max_bytes
      no_journal sweep_rate sweep_burst client_rate client_burst
      client_key_header max_conns pipeline idle_timeout selftest quiet =
    if selftest then exit (if Selftest.run ~quiet () then 0 else 1)
    else begin
      let cfg =
        {
          Server.default_config with
          Server.host;
          port;
          workers;
          rho = rate;
          sigma = burst;
          campaign_dir = dir;
          snapshot_every;
          cache_max_bytes;
          journal = not no_journal;
          sweep_rho = sweep_rate;
          sweep_sigma = sweep_burst;
          client_rho = client_rate;
          client_sigma = client_burst;
          client_key_header;
          max_conns;
          max_pipeline = pipeline;
          idle_timeout;
          quiet;
        }
      in
      match
        Server.start ~registry:(Aqt_experiments.registry ())
          ~figures:(Aqt_report.Report.default_figures ())
          cfg
      with
      | srv ->
          let stop _ = Server.request_stop srv in
          Sys.set_signal Sys.sigterm (Sys.Signal_handle stop);
          Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
          Server.wait srv
      | exception Invalid_argument msg ->
          Printf.eprintf "aqt_sim serve: %s\n" msg;
          exit 2
      | exception Unix.Unix_error (err, fn, _) ->
          Printf.eprintf "aqt_sim serve: %s: %s\n" fn (Unix.error_message err);
          exit 2
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the simulation service: an HTTP daemon whose (rho,sigma) \
          token-bucket admission is the paper's rate-bounded adversary \
          constraint applied to its own request stream.  Sweeps and \
          experiments are content-addressed into the shared campaign cache; \
          metrics are exported at /metrics in Prometheus text format and \
          journalled periodically.  SIGTERM/SIGINT drain gracefully.")
    Term.(
      const run $ port $ host $ workers $ rate $ burst $ dir $ snapshot_every
      $ cache_max_bytes $ no_journal $ sweep_rate $ sweep_burst $ client_rate
      $ client_burst $ client_key_header $ max_conns $ pipeline $ idle_timeout
      $ selftest $ quiet)

(* ------------------------------------------------------------------ *)
(* loadgen: latency-measuring load generator                           *)
(* ------------------------------------------------------------------ *)

let loadgen_cmd =
  let module Loadgen = Aqt_serve.Loadgen in
  let dflt = Loadgen.default_config in
  let port =
    Arg.(
      value & opt int dflt.Loadgen.port
      & info [ "port"; "p" ] ~docv:"PORT" ~doc:"Target server port.")
  in
  let host =
    Arg.(
      value & opt string dflt.Loadgen.host
      & info [ "host" ] ~docv:"ADDR" ~doc:"Target server address.")
  in
  let conns =
    Arg.(
      value & opt int dflt.Loadgen.conns
      & info [ "conns"; "c" ] ~docv:"N"
          ~doc:"Concurrent keep-alive connections.")
  in
  let requests =
    Arg.(
      value & opt int dflt.Loadgen.requests
      & info [ "requests"; "n" ] ~docv:"N" ~doc:"Total requests to issue.")
  in
  let rate =
    Arg.(
      value & opt float 0.
      & info [ "rate" ] ~docv:"RPS"
          ~doc:
            "Open-loop aggregate send rate in requests/second; 0 (the \
             default) runs closed-loop, self-clocked to the server.")
  in
  let pipeline =
    Arg.(
      value & opt int dflt.Loadgen.pipeline
      & info [ "pipeline" ] ~docv:"N"
          ~doc:"Closed-loop outstanding requests per connection.")
  in
  let path =
    Arg.(
      value
      & opt_all string []
      & info [ "path" ] ~docv:"PATH"
          ~doc:
            "Request path, weighted by repetition (default /healthz). \
             Repeatable.")
  in
  let seed =
    Arg.(
      value & opt int dflt.Loadgen.seed
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Workload PRNG seed: same seed, same request stream.")
  in
  let run_timeout =
    Arg.(
      value & opt float dflt.Loadgen.run_timeout
      & info [ "timeout" ] ~docv:"SECONDS" ~doc:"Hard wall on the whole run.")
  in
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~docv:"FILE"
          ~doc:"Write the metric,value summary to $(docv).")
  in
  let journal =
    Arg.(
      value
      & opt (some string) None
      & info [ "journal" ] ~docv:"FILE"
          ~doc:"Append the full metrics snapshot to $(docv) as JSONL.")
  in
  let selftest =
    Arg.(
      value & flag
      & info [ "selftest" ]
          ~doc:
            "Boot a throwaway server, drive it closed-loop past its \
             (rho,sigma) budget with $(b,--conns) connections and \
             $(b,--requests) requests, check the admitted stream fits the \
             rho*T + sigma envelope and the p999 tail stays bounded, and \
             exit 0 iff all checks pass.")
  in
  let selftest_rate =
    Arg.(
      value & opt float 2000.
      & info [ "selftest-rate" ] ~docv:"RHO"
          ~doc:"Admission rate of the throwaway selftest server.")
  in
  let selftest_burst =
    Arg.(
      value & opt int 200
      & info [ "selftest-burst" ] ~docv:"SIGMA"
          ~doc:"Burst budget of the throwaway selftest server.")
  in
  let snapshot_every =
    Arg.(
      value & opt float 0.
      & info [ "snapshot-every" ] ~docv:"SECONDS"
          ~doc:
            "Capture an in-run metrics snapshot every $(docv); the series \
             goes to $(b,--journal) as one JSONL event per tick.  0 (the \
             default) records only the final snapshot.")
  in
  let quiet = Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No chatter.") in
  let run port host conns requests rate pipeline path seed run_timeout csv
      journal selftest selftest_rate selftest_burst snapshot_every quiet =
    let emit (r : Loadgen.result) =
      (match csv with
      | None -> ()
      | Some f ->
          let oc = open_out f in
          output_string oc (Loadgen.result_csv r);
          close_out oc);
      match journal with
      | None -> ()
      | Some f -> Loadgen.write_journal ~path:f r
    in
    if selftest then begin
      let cfg_requests = requests and cfg_conns = conns in
      exit
        (if
           Loadgen.selftest ~quiet ~requests:cfg_requests ~conns:cfg_conns
             ~rho:selftest_rate ~sigma:selftest_burst
             ~snapshot_every ~emit ()
         then 0
         else 1)
    end
    else begin
      let paths =
        match path with [] -> dflt.Loadgen.paths | ps -> List.map (fun p -> (1, p)) ps
      in
      let cfg =
        {
          dflt with
          Loadgen.host;
          port;
          conns;
          requests;
          mode = (if rate > 0. then Loadgen.Open rate else Loadgen.Closed);
          pipeline;
          paths;
          seed;
          run_timeout;
          quiet;
          snapshot_every;
        }
      in
      match Loadgen.run cfg with
      | r ->
          emit r;
          if not quiet then
            print_string (Aqt_util.Jsonx.to_string (Loadgen.result_json r) ^ "\n");
          exit (if r.Loadgen.errors * 50 > r.Loadgen.issued then 1 else 0)
      | exception Invalid_argument msg ->
          Printf.eprintf "aqt_sim loadgen: %s\n" msg;
          exit 2
    end
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive an aqt_sim serve daemon with open- or closed-loop keep-alive \
          load over loopback and report p50/p99/p999 latency, throughput and \
          shed rate.  Request framing varies by a heavy-tailed flow CDF; the \
          workload is PRNG-seeded and reproducible.  With $(b,--selftest), \
          validates the server's (rho,sigma) admission envelope end to end.")
    Term.(
      const run $ port $ host $ conns $ requests $ rate $ pipeline $ path
      $ seed $ run_timeout $ csv $ journal $ selftest $ selftest_rate
      $ selftest_burst $ snapshot_every $ quiet)

(* ------------------------------------------------------------------ *)
(* check: differential conformance + fault-injection self-test         *)
(* ------------------------------------------------------------------ *)

let check_cmd =
  let open Aqt_check in
  let run_faults () =
    let outcomes = Faults.selftest () in
    List.iter
      (fun (o : Faults.outcome) ->
        Printf.printf "%-32s %s%s\n" o.case
          (if o.passed then "ok" else "FAILED")
          (if o.passed then "" else ": " ^ o.detail))
      outcomes;
    List.for_all (fun (o : Faults.outcome) -> o.passed) outcomes
  in
  let run_mutant_demo ?families ?soa_domains () =
    (* The self-check that the differ can catch bugs: corrupt the engine
       arms five different ways and demand a shrunk reproducer each time.
       Each mutant only manifests on families whose scenarios exercise
       the corrupted code path (e.g. [skip-reroutes] needs a family that
       reroutes at all; [violate-local-budget] corrupts all arms
       identically, so only the local family's admissibility obligation
       can catch it).  Under --family, a mutant whose exposing families
       were all excluded is skipped rather than reported uncaught. *)
    let exposed_by = function
      | Diff.Drop_injection _ | Diff.Flip_tie_order -> Gen.all_families
      | Diff.Skip_reroutes ->
          [ Gen.Free; Gen.Capacity_regime; Gen.Feedback_routing ]
      | Diff.Ignore_capacity -> [ Gen.Capacity_regime ]
      | Diff.Violate_local_budget -> [ Gen.Local_bursty ]
    in
    let mutants =
      [
        ("drop-injection", Diff.Drop_injection 3);
        ("flip-tie-order", Diff.Flip_tie_order);
        ("skip-reroutes", Diff.Skip_reroutes);
        ("ignore-capacity", Diff.Ignore_capacity);
        ("violate-local-budget", Diff.Violate_local_budget);
      ]
    in
    List.for_all
      (fun (name, mutant) ->
        let exposing = exposed_by mutant in
        let scan =
          match families with
          | None -> exposing
          | Some fs -> List.filter (fun f -> List.mem f fs) exposing
        in
        if scan = [] then begin
          Printf.printf
            "mutant %-16s skipped: no requested family can expose it\n" name;
          true
        end
        else
          match
            Check.find_mutant_failure ~families:scan ?soa_domains mutant
          with
          | Some (scenario, failure) ->
              Printf.printf "mutant %-16s caught: %s\n" name
                (Format.asprintf "%a" Diff.pp_failure failure);
              Printf.printf "  shrunk to horizon %d, %d injection(s)\n"
                (Gen.horizon scenario)
                (Array.fold_left
                   (fun acc l -> acc + List.length l)
                   0 scenario.Gen.schedule);
              true
          | None ->
              Printf.printf "mutant %-16s NOT caught by any scanned seed\n"
                name;
              false)
      mutants
  in
  let run seeds base seed soa_domains family faults mutant_demo quiet =
    let ok = ref true in
    let families =
      match family with
      | [] -> None
      | names ->
          Some
            (List.map
               (fun name ->
                 match Gen.family_of_string name with
                 | Some f -> f
                 | None ->
                     Printf.eprintf "unknown family %S (%s)\n" name
                       (String.concat "|"
                          (List.map Gen.family_name Gen.all_families));
                     exit 2)
               names)
    in
    (match seed with
    | Some k -> (
        let scenario = Gen.generate ?families k in
        Format.printf "%a@." Gen.pp scenario;
        match Diff.run ?soa_domains scenario with
        | None -> Format.printf "seed %d: conforms@." k
        | Some original ->
            let shrunk, failure =
              Shrink.minimize ~run:(Diff.run ?soa_domains) scenario original
            in
            Format.printf "seed %d: %a@.shrunk (%a):@.%a@." k Diff.pp_failure
              original Diff.pp_failure failure Gen.pp shrunk;
            ok := false)
    | None ->
        if not (faults || mutant_demo) || seeds > 0 then begin
          let progress =
            if quiet then None
            else
              Some
                (fun done_ ->
                  if done_ mod 50 = 0 then
                    Printf.printf "  ... %d/%d seeds\n%!" done_ seeds)
          in
          let summary =
            Check.run_seeds ?families ?soa_domains ?progress ~base ~n:seeds ()
          in
          Format.printf "%a" Check.pp_summary summary;
          if summary.Check.failures <> [] then ok := false
        end);
    if faults then if not (run_faults ()) then ok := false;
    if mutant_demo then
      if not (run_mutant_demo ?families ?soa_domains ()) then ok := false;
    if not !ok then exit 1
  in
  let seeds =
    Arg.(
      value & opt int 100
      & info [ "seeds" ] ~docv:"N"
          ~doc:"Number of random scenarios to check (seeds 0..N-1).")
  in
  let base =
    Arg.(
      value & opt int 0
      & info [ "base" ] ~docv:"B" ~doc:"First seed of the range.")
  in
  let seed =
    Arg.(
      value
      & opt (some int) None
      & info [ "seed" ] ~docv:"K"
          ~doc:
            "Replay a single seed verbosely (prints the scenario, then the \
             verdict; shrinks on failure).  Overrides $(b,--seeds).")
  in
  let family =
    Arg.(
      value
      & opt (list string) []
      & info [ "family" ] ~docv:"NAME,..."
          ~doc:
            "Restrict generation to the listed scenario families \
             ($(b,free), $(b,shared-bucket), $(b,windowed), $(b,leaky), \
             $(b,capacity), $(b,local), $(b,feedback), $(b,fabric)).  \
             Default: all eight.  Note the seed-to-scenario mapping \
             depends on the restriction.")
  in
  let faults =
    Arg.(
      value & flag
      & info [ "faults" ]
          ~doc:"Also run the harness fault-injection self-test.")
  in
  let mutant_demo =
    Arg.(
      value & flag
      & info [ "mutant-demo" ]
          ~doc:
            "Corrupt the engine arms with each built-in mutant and verify \
             the differ catches and shrinks every one.")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"No progress lines.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Differential conformance check: run seeded random scenarios \
          through a naive reference model and the fast engine in lockstep, \
          verify adversary admissibility and the paper's dwell-bound \
          invariants, and shrink any divergence to a minimal reproducer \
          replayable by seed.  $(b,--faults) adds the campaign-harness \
          fault-injection self-test.")
    Term.(
      const run $ seeds $ base $ seed $ soa_domains_term $ family $ faults
      $ mutant_demo $ quiet)

(* ------------------------------------------------------------------ *)
(* soa-scale: step-cost scaling of the struct-of-arrays backend         *)
(* ------------------------------------------------------------------ *)

let soa_scale_cmd =
  let run edges domains steps out =
    (* A K-edge ring at ~0.1 load: every step injects K/1000 fresh
       100-hop routes at evenly spaced starts, so about K/10 packets are
       in flight once the warmup (route length + slack) reaches steady
       state.  Each cell reports the best of 3 timed batches. *)
    let hops = 100 in
    let cell k ndom =
      let ring = Build.ring k in
      let nroutes = max 1 (k / (10 * hops)) in
      let injs =
        List.init nroutes (fun i ->
            {
              Network.route =
                Array.init hops (fun j ->
                    ring.Build.edges.(((i * (k / nroutes)) + j) mod k));
              tag = "";
            })
      in
      let soa =
        Aqt_engine.Soa.create ~domains:ndom ~graph:ring.Build.graph
          ~policy:Policies.fifo ()
      in
      for _ = 1 to hops + 10 do
        Aqt_engine.Soa.step soa injs
      done;
      let in_flight = Aqt_engine.Soa.in_flight soa in
      let best = ref infinity in
      for _ = 1 to 3 do
        let t0 = Unix.gettimeofday () in
        for _ = 1 to steps do
          Aqt_engine.Soa.step soa injs
        done;
        let dt = (Unix.gettimeofday () -. t0) /. float_of_int steps in
        if dt < !best then best := dt
      done;
      Aqt_engine.Soa.shutdown soa;
      [
        string_of_int k;
        string_of_int ndom;
        string_of_int in_flight;
        Printf.sprintf "%.3f" (!best *. 1e3);
        Printf.sprintf "%.2f" (!best /. float_of_int k *. 1e9);
        Printf.sprintf "%.1f" (!best /. float_of_int in_flight *. 1e9);
      ]
    in
    let headers =
      [
        "edges"; "domains"; "in_flight"; "ms_per_step"; "ns_per_edge_step";
        "ns_per_forward";
      ]
    in
    let rows =
      List.concat_map (fun k -> List.map (cell k) domains) edges
    in
    let tbl = Tbl.create ~headers in
    Tbl.add_rows tbl rows;
    Tbl.print tbl;
    match out with
    | None -> ()
    | Some path ->
        Aqt_util.Csv_out.with_file path ~headers (fun csv ->
            Aqt_util.Csv_out.write_rows csv rows);
        Printf.printf "wrote %s\n" path
  in
  let edges =
    Arg.(
      value
      & opt (list int) [ 10_000; 100_000; 1_000_000 ]
      & info [ "edges" ] ~docv:"K,..." ~doc:"Ring sizes to measure.")
  in
  let domains =
    Arg.(
      value
      & opt (list int) [ 1; 2; 4 ]
      & info [ "domains" ] ~docv:"N,..." ~doc:"Domain counts to measure.")
  in
  let steps =
    Arg.(
      value & opt int 5
      & info [ "steps" ] ~docv:"N"
          ~doc:"Steps per timed batch (best of 3 batches is reported).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Also write the table as CSV.")
  in
  Cmd.v
    (Cmd.info "soa-scale"
       ~doc:
         "Measure struct-of-arrays engine step cost across ring sizes and \
          domain counts at ~0.1 load (100-hop routes), reporting \
          ns per edge-step and ns per forwarded packet.")
    Term.(const run $ edges $ domains $ steps $ out)

(* ------------------------------------------------------------------ *)
(* fabric: datacenter-fabric scenarios (spine-leaf / fat-tree)          *)
(* ------------------------------------------------------------------ *)

let fabric_cmd =
  let module Scenario = Aqt_fabric.Scenario in
  let module Traffic = Aqt_workload.Traffic in
  let module Capacity = Aqt_capacity.Model in
  let topo_conv = conv_of Scenario.topo_of_string Scenario.topo_to_string in
  let pattern_conv =
    conv_of Traffic.pattern_of_string Traffic.pattern_to_string
  in
  let capacity_conv = conv_of Capacity.of_string Capacity.to_string in
  let print_outcome (o : Scenario.outcome) =
    let c = Tbl.create ~headers:[ "metric"; "value" ] in
    Tbl.add_row c [ "backend"; o.backend ];
    Tbl.add_row c [ "nodes"; Tbl.fi o.nodes ];
    Tbl.add_row c [ "edges"; Tbl.fi o.edges ];
    Tbl.add_row c [ "hosts"; Tbl.fi o.n_hosts ];
    Tbl.add_row c [ "pairs"; Tbl.fi o.n_pairs ];
    Tbl.add_row c [ "flows"; Tbl.fi o.n_flows ];
    Tbl.add_row c [ "injected"; Tbl.fi o.injected ];
    Tbl.add_row c [ "absorbed"; Tbl.fi o.absorbed ];
    Tbl.add_row c [ "dropped"; Tbl.fi o.dropped ];
    Tbl.add_row c [ "in flight"; Tbl.fi o.in_flight ];
    Tbl.add_row c [ "max queue"; Tbl.fi o.max_queue ];
    Tbl.add_row c [ "peak occupancy"; Tbl.fi o.peak_occupancy ];
    Tbl.add_row c [ "max dwell"; Tbl.fi o.max_dwell ];
    Tbl.add_row c [ "mean latency"; Printf.sprintf "%.2f" o.latency_mean ];
    Tbl.add_row c [ "admissible"; (if o.legal then "yes" else "NO") ];
    Tbl.print c
  in
  let run list name_arg topo pattern util conns policy capacity horizon drain
      seed soa_domains =
    if list then begin
      (* One column per flag, in the flag's own syntax: a row pastes back
         as [--topo ... --horizon ...]. *)
      let tbl =
        Tbl.create
          ~headers:
            [
              "name"; "topo"; "pattern"; "util"; "policy"; "capacity";
              "horizon";
            ]
      in
      List.iter
        (fun (t : Scenario.t) ->
          Tbl.add_row tbl
            [
              t.name;
              Scenario.topo_to_string t.topo;
              Traffic.pattern_to_string t.pattern;
              Ratio.to_string t.utilisation;
              t.policy.name;
              Capacity.to_string t.capacity;
              string_of_int t.horizon;
            ])
        (Scenario.catalog ());
      Tbl.print tbl
    end
    else begin
      let base =
        match name_arg with
        | Some n -> (
            match Scenario.find_catalog n with
            | Some t -> t
            | None ->
                Printf.eprintf
                  "unknown scenario %S (try fabric --list)\n" n;
                exit 2)
        | None ->
            Scenario.make ~topo ~pattern ~utilisation:util
              ~conns_per_pair:conns ~policy ~capacity ~horizon ~drain ~seed ()
      in
      let fabric, compiled = Scenario.compile base in
      (match
         Capacity.check_edges base.capacity
           ~m:(Aqt_graph.Digraph.n_edges fabric.Build.graph)
       with
      | Ok () -> ()
      | Error e ->
          Printf.eprintf "fabric: %s\n" e;
          exit 2);
      print_endline (Traffic.describe compiled);
      let backends =
        match soa_domains with
        | None -> [ `Record ]
        | Some ds -> List.map (fun d -> `Soa d) ds
      in
      let outcomes =
        List.map (fun backend -> Scenario.run ~backend base) backends
      in
      List.iter print_outcome outcomes;
      if not (List.for_all (fun (o : Scenario.outcome) -> o.legal) outcomes)
      then exit 1
    end
  in
  let list =
    Arg.(value & flag & info [ "list" ] ~doc:"List the canned scenarios.")
  in
  let name_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "name" ] ~docv:"NAME"
          ~doc:"Run a canned scenario from $(b,--list) instead of building \
                one from flags.")
  in
  let topo =
    Arg.(
      value
      & opt topo_conv (Scenario.Fat_tree { k = 4 })
      & info [ "topo" ] ~docv:"TOPO"
          ~doc:"$(b,spine-leaf:S,L,H) or $(b,fat-tree:K) (K even).")
  in
  let pattern =
    Arg.(
      value
      & opt pattern_conv Traffic.Permutation
      & info [ "pattern" ] ~docv:"PATTERN"
          ~doc:
            "$(b,permutation), $(b,incast:N), $(b,all-to-all) or \
             $(b,hotspot:N/D).")
  in
  let util =
    Arg.(
      value
      & opt ratio_conv (Ratio.make 9 10)
      & info [ "util" ] ~docv:"RHO"
          ~doc:"Target utilisation of the busiest host access link.")
  in
  let conns =
    Arg.(
      value & opt int 1
      & info [ "conns" ] ~docv:"N" ~doc:"Connections per host pair.")
  in
  let policy =
    Arg.(
      value & opt policy_conv Policies.fifo
      & info [ "policy" ] ~docv:"P" ~doc:"Queueing policy.")
  in
  let capacity =
    Arg.(
      value
      & opt capacity_conv Capacity.unbounded
      & info [ "capacity" ] ~docv:"CAP"
          ~doc:
            "$(b,unbounded), $(b,uniform:K[:drop-head]), \
             $(b,per-edge:K1,...,Km[:drop-head]) or $(b,shared:T[:A/B]) \
             (a Dynamic-Threshold pool of T slots with alpha = A/B), then \
             $(b,@S) for link speedup S.")
  in
  let horizon =
    Arg.(
      value & opt int 2000
      & info [ "horizon" ] ~docv:"T" ~doc:"Injection steps.")
  in
  let drain =
    Arg.(
      value & opt int 200
      & info [ "drain" ] ~docv:"T"
          ~doc:"Injection-free steps before reading counters.")
  in
  let seed =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"K" ~doc:"Workload seed.")
  in
  Cmd.v
    (Cmd.info "fabric"
       ~doc:
         "Run a datacenter-fabric scenario: a spine-leaf or fat-tree \
          topology, a flow-level workload compiled to an admissible \
          schedule (ECMP routes, flow-size CDF, utilisation shaping), a \
          queueing policy and a buffer model.  Verifies the injection log \
          against its compiled (rho, sigma) budget and exits nonzero if \
          the admissibility check fails.")
    Term.(
      const run $ list $ name_arg $ topo $ pattern $ util $ conns $ policy
      $ capacity $ horizon $ drain $ seed $ soa_domains_term)

let () =
  let doc = "adversarial queuing theory simulator (Lotker-Patt-Shamir-Rosen)" in
  let info = Cmd.info "aqt_sim" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            params_cmd; instability_cmd; stability_cmd; simulate_cmd;
            sweep_cmd; plan_cmd; fluid_cmd; replay_cmd; workloads_cmd;
            spacetime_cmd; campaign_cmd; report_cmd; check_cmd;
            soa_scale_cmd; serve_cmd; loadgen_cmd; fabric_cmd;
          ]))
