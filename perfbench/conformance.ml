(* Differential conformance: [Check.run_seeds] over all eight families with
   one struct-of-arrays arm at one domain, which is what
   [aqt_sim check --backend soa] runs.  The base seed is [seed * seeds], so
   consecutive workload seeds check disjoint seed ranges. *)

module Jsonx = Aqt_util.Jsonx
module Digraph = Aqt_graph.Digraph
module Network = Aqt_engine.Network
module Packet = Aqt_engine.Packet
module Soa = Aqt_engine.Soa
module Rate_check = Aqt_adversary.Rate_check
module Feedback = Aqt_adversary.Feedback
module Gen = Aqt_check.Gen
module Diff = Aqt_check.Diff
module Check = Aqt_check.Check
module Ref_model = Aqt_check.Ref_model

let seeds = 10_000
let soa_domains = [ 1 ]

(* Total simulated steps of the seed range, for the default and the
   held-out workload seed.  Other seeds are held to zero divergences
   only. *)
let golden_steps = [ (1, 437_508); (90_001, 438_955) ]

let sp_gen = Span.register "check.gen"
let sp_diff = Span.register "check.diff"
let sp_replay = Span.register "check.replay"
let sp_ref = Span.register "check.ref_model"
let sp_record = Span.register "check.record"
let sp_soa = Span.register "check.soa"
let sp_soa_create = Span.register "check.soa_create"
let sp_obligations = Span.register "check.obligations"

(* One engine arm as [Diff.run] drives it: place, snapshot queues,
   truncate, step. *)
type arm = {
  place : int array -> unit;
  queues : int -> int array;
  truncate : (id:int -> edge:int -> remaining:int -> bool) -> unit;
  step : Network.injection list -> unit;
  finish : unit -> int * int;  (** absorbed, in flight *)
}

let truncate_packets iter reroute pred =
  let victims = ref [] in
  iter
    (fun p ->
      if
        pred ~id:p.Packet.id ~edge:(Packet.current_edge p)
          ~remaining:(Packet.remaining p)
      then victims := p :: !victims)
    ();
  List.iter (fun p -> reroute p [||]) !victims

let ref_arm (sc : Gen.scenario) =
  let r =
    Ref_model.create ~tie_order:sc.tie_order ~capacity:sc.capacity
      ~graph:sc.graph ~policy:sc.policy ()
  in
  {
    place = (fun route -> ignore (Ref_model.place_initial r route));
    queues = (fun m -> Array.init m (Ref_model.buffer_len r));
    truncate =
      truncate_packets
        (fun f () -> Ref_model.iter_buffered f r)
        (Ref_model.reroute r);
    step = (fun injs -> ignore (Ref_model.step r injs));
    finish = (fun () -> (Ref_model.absorbed r, Ref_model.in_flight r));
  }

let net_arm net =
  {
    place = (fun route -> ignore (Network.place_initial net route));
    queues = (fun m -> Array.init m (Network.buffer_len net));
    truncate =
      truncate_packets
        (fun f () -> Network.iter_buffered f net)
        (Network.reroute net);
    step = (fun injs -> Network.step net injs);
    finish = (fun () -> (Network.absorbed net, Network.in_flight net));
  }

let soa_arm soa =
  {
    place = (fun route -> ignore (Soa.place_initial soa route));
    queues = (fun m -> Array.init m (Soa.buffer_len soa));
    truncate = (fun pred -> Soa.reroute_where soa pred [||]);
    step = (fun injs -> Soa.step soa injs);
    finish = (fun () -> (Soa.absorbed soa, Soa.in_flight soa));
  }

let drive (sc : Gen.scenario) arm =
  List.iter arm.place sc.initial;
  let m = Digraph.n_edges sc.graph in
  Array.iter
    (fun injs ->
      match sc.feedback with
      | None ->
          if sc.reroutes then
            arm.truncate (fun ~id ~edge:_ ~remaining ->
                id mod 5 = 2 && remaining > 1);
          arm.step injs
      | Some fb ->
          let queues = arm.queues m in
          if sc.reroutes then
            arm.truncate (fun ~id:_ ~edge ~remaining ->
                Feedback.should_truncate ~queues ~hot:fb.hot ~edge ~remaining);
          arm.step
            (List.map2
               (fun (inj : Network.injection) route -> { inj with route })
               injs
               (Feedback.assign ~queues ~pool:fb.pool (List.length injs))))
    sc.schedule;
  arm.finish ()

let obligation (sc : Gen.scenario) net =
  let m = Digraph.n_edges sc.graph in
  let log = Network.injection_log net in
  function
  | Gen.Rate_ok rate -> Rate_check.check_rate ~m ~rate log = Ok ()
  | Gen.Windowed_ok { w; rate } ->
      Rate_check.check_windowed ~m ~w ~rate log = Ok ()
  | Gen.Leaky_ok { b; rate } -> Rate_check.check_leaky ~m ~b ~rate log = Ok ()
  | Gen.Local_ok { rate; sigmas } ->
      Rate_check.check_local ~rate ~sigmas log = Ok ()
  | Gen.Routes_valid ->
      Array.for_all (fun (_, r) -> Digraph.route_is_simple sc.graph r) log
  | Gen.Drop_accounting ->
      let per_edge = ref 0 in
      for e = 0 to m - 1 do
        per_edge := !per_edge + Network.dropped_on_edge net e
      done;
      !per_edge = Network.dropped net
  | Gen.Dwell_bound { w; rate; d } -> (
      match Aqt.Stability.verify_run ~w ~rate ~d net with
      | None | Some { Aqt.Stability.ok = true; _ } -> true
      | Some _ -> false)

let timed sp f =
  let s = Span.enter sp in
  let r = f () in
  Span.exit s;
  r

(* Each arm of [Diff.run] alone, so the differ's time can be split into
   the reference model, the record engine (fast and traced arms), the SoA
   arm and the admissibility obligations; what remains of [Diff.run] is
   its per-step compare.  Returns whether the arms agree. *)
let replay_arms (sc : Gen.scenario) =
  let engine ?tracer () =
    Network.create ~log_injections:true ~tie_order:sc.tie_order
      ~recycle:(tracer = None) ?tracer ~capacity:sc.capacity ~graph:sc.graph
      ~policy:sc.policy ()
  in
  let r = timed sp_ref (fun () -> drive sc (ref_arm sc)) in
  let fast = engine () in
  let a, b =
    timed sp_record (fun () ->
        let a = drive sc (net_arm fast) in
        let tracer = Aqt_engine.Trace.handler (Aqt_engine.Trace.create ()) in
        (a, drive sc (net_arm (engine ~tracer ()))))
  in
  let c =
    timed sp_soa (fun () ->
        let soa =
          timed sp_soa_create (fun () ->
              Soa.create ~log_injections:true ~tie_order:sc.tie_order
                ~capacity:sc.capacity ~domains:1 ~graph:sc.graph
                ~policy:sc.policy ())
        in
        let c = drive sc (soa_arm soa) in
        timed sp_soa_create (fun () -> Soa.shutdown soa);
        c)
  in
  let ok =
    timed sp_obligations (fun () ->
        List.for_all (obligation sc fast) sc.obligations)
  in
  ok && r = a && a = b && b = c

let family (sc : Gen.scenario) =
  let first = List.hd (String.split_on_char ' ' sc.label) in
  match Gen.family_of_string first with
  | Some f -> Gen.family_name f
  | None -> first

let families = List.map Gen.family_name Gen.all_families

let run ~traced ~seed =
  let base = seed * seeds in
  if traced then Span.enable ~capacity:(16 * seeds);
  let done_at = Float.Array.make seeds 0. in
  let family_s = Hashtbl.create 8 in
  let replay_s = ref 0. and replay_bad = ref 0 in
  let steps = ref 0 in
  Job.start ();
  let divergent =
    if traced then begin
      let bad = ref 0 in
      for i = 0 to seeds - 1 do
        let sc = timed sp_gen (fun () -> Gen.generate (base + i)) in
        let s = Span.enter sp_diff in
        let r = Diff.run ~soa_domains sc in
        Span.exit s;
        if r <> None then incr bad;
        let f = family sc in
        let before = Option.value ~default:0. (Hashtbl.find_opt family_s f) in
        Hashtbl.replace family_s f (before +. Span.dur s);
        steps := !steps + Gen.horizon sc;
        let s = Span.enter sp_replay in
        if not (replay_arms sc) then incr replay_bad;
        Span.exit s;
        replay_s := !replay_s +. Span.dur s;
        Float.Array.set done_at i (Span.now ())
      done;
      !bad
    end
    else begin
      let summary =
        Check.run_seeds ~soa_domains ~base ~n:seeds
          ~progress:(fun k -> Float.Array.set done_at (k - 1) (Span.now ()))
          ()
      in
      List.length summary.Check.failures
    end
  in
  Job.finish ();
  if not traced then
    for i = 0 to seeds - 1 do
      steps := !steps + Gen.horizon (Gen.generate (base + i))
    done;
  (* A traced seed's latency includes its replay; run.py reads latency
     from untraced repetitions only. *)
  let latencies_ms =
    Array.init seeds (fun i ->
        1000.
        *. (Float.Array.get done_at i
           -. if i = 0 then Job.j.t0 else Float.Array.get done_at (i - 1)))
  in
  (* A wrong step total means the seed range itself is off its golden
     input, so every seed in it counts as failed. *)
  let errors = ref [] in
  Job.check errors (!replay_bad = 0) "%d seeds whose arm replays disagree"
    !replay_bad;
  (match List.assoc_opt seed golden_steps with
  | Some g ->
      Job.check errors (!steps = g) "simulated %d steps, want %d" !steps g
  | None -> ());
  let failed = if !errors = [] then divergent else seeds in
  Job.check errors (divergent = 0) "%d of %d seeds diverged" divergent seeds;
  let t = Span.totals () in
  let time s = (t s).Span.time in
  let arms =
    time "check.ref_model" +. time "check.record" +. time "check.soa"
    +. time "check.obligations"
  in
  {
    Job.units = seeds;
    latencies_ms;
    stats = [ ("divergent", Jsonx.Int divergent); ("steps", Jsonx.Int !steps) ];
    attempted = seeds;
    failed;
    errors = !errors;
    layers =
      (if traced then
         [
           ("check.gen_s", time "check.gen");
           ("check.diff_s", time "check.diff");
           ("check.ref_model_s", time "check.ref_model");
           ("check.record_s", time "check.record");
           ("check.soa_s", time "check.soa");
           ("check.soa_create_s", time "check.soa_create");
           ("check.obligations_s", time "check.obligations");
           ("check.compare_s", time "check.diff" -. arms);
         ]
         @ List.map
             (fun f ->
               ( "check.family." ^ f ^ "_s",
                 Option.value ~default:0. (Hashtbl.find_opt family_s f) ))
             families
       else []);
    replay_s = !replay_s;
  }
