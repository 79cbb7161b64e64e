(* An in-process [Aqt_serve.Server] with one worker domain, driven open
   loop at a fixed rate over two keep-alive connections.

   The client is the benchmark's own rather than [Loadgen]: [Loadgen]
   keeps latency in fixed histogram buckets (1 ms, 2.5 ms, ...), which
   cannot resolve a 1.2-1.7 ms median, and it does not expose each
   response's path or body, which the per-path latencies and the body
   checks need.  Like [Loadgen]'s open loop, it times every request from
   its scheduled send instant, so a stall counts against every request
   queued behind it. *)

module Jsonx = Aqt_util.Jsonx
module Prng = Aqt_util.Prng
module Http = Aqt_serve.Http
module Server = Aqt_serve.Server
module Metrics = Aqt_serve.Metrics

let rate = 200.
let requests = 1_000
let conns = 2

type kind = Simulate | Sweep | Healthz

let kind_name = function
  | Simulate -> "simulate"
  | Sweep -> "sweep"
  | Healthz -> "healthz"

let path ~seed = function
  | Simulate ->
      Printf.sprintf
        "/simulate?network=ring:8&horizon=2000&stochastic=true&seed=%d" seed
  | Sweep -> "/sweep?network=ring:6&horizon=500&rates=1/4&policy=fifo"
  | Healthz -> "/healthz"

(* 60 % compute, 30 % one repeated cached sweep, 10 % event-loop fast
   path. *)
let mix rng =
  let x = Prng.int rng 10 in
  if x < 6 then Simulate else if x < 9 then Sweep else Healthz

let server_config dir =
  {
    Server.default_config with
    port = 0;
    workers = 1;
    rho = 1e6;
    sigma = 100_000;
    sweep_rho = 1e6;
    sweep_sigma = 100_000;
    client_rho = 1e6;
    client_sigma = 100_000;
    campaign_dir = dir;
    journal = false;
    snapshot_every = 0.;
    sweep_shards = 1;
    quiet = true;
  }

let sp_send = Span.register "loadgen.send"
let sp_recv = Span.register "loadgen.recv"
let sp_wait = Span.register "loadgen.wait"
let kinds_all = [| Simulate; Sweep; Healthz |]
let kind_index = function Simulate -> 0 | Sweep -> 1 | Healthz -> 2

let sp_request =
  Array.map (fun k -> Span.register ("serve." ^ kind_name k)) kinds_all

type conn = {
  fd : Unix.file_descr;
  parser : Http.Rparser.t;
  pending : int Queue.t;  (** Requests sent and not yet answered. *)
}

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  { fd; parser = Http.Rparser.create (); pending = Queue.create () }

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(* Body checks: the first body of each kind is parsed; later ones must
   repeat it byte for byte (the simulate seed is fixed, and every sweep
   after the first is the same cache hit). *)
type expect = {
  mutable simulate : string;
  mutable sweep_hit : string;
  mutable sweep_miss : int;
}

let check_body ~seed expect kind body =
  let json () = try Some (Jsonx.of_string body) with Failure _ -> None in
  let field k = Option.bind (json ()) (Jsonx.member k) in
  match kind with
  | Healthz -> body = "ok\n"
  | Simulate ->
      if expect.simulate = "" then begin
        let ok =
          field "steps" = Some (Jsonx.Int 2000)
          && field "seed" = Some (Jsonx.Int seed)
          && field "network" = Some (Jsonx.Str "ring:8")
        in
        if ok then expect.simulate <- body;
        ok
      end
      else body = expect.simulate
  | Sweep -> (
      match field "cached" with
      | Some (Jsonx.Bool false) ->
          expect.sweep_miss <- expect.sweep_miss + 1;
          expect.sweep_miss = 1
      | Some (Jsonx.Bool true) when expect.sweep_hit = "" ->
          expect.sweep_hit <- body;
          true
      | _ -> body = expect.sweep_hit)

let run ~traced ~seed =
  if traced then Span.enable ~capacity:(16 * requests);
  let dir =
    Filename.concat Job.out_dir (Printf.sprintf "serve-%d" (Unix.getpid ()))
  in
  (try Sys.mkdir Job.out_dir 0o755 with Sys_error _ -> ());
  let srv = Server.start (server_config dir) in
  let cs = Array.init conns (fun _ -> connect (Server.port srv)) in
  let rng = Prng.create seed in
  let kinds = Array.init requests (fun _ -> mix rng) in
  let wires =
    Array.map (fun k -> Http.encode_request (path ~seed k)) kinds_all
  in
  let last_sent = ref 0. in
  let lat = Array.make requests nan and ok = Array.make requests false in
  let expect = { simulate = ""; sweep_hit = ""; sweep_miss = 0 } in
  let buf = Bytes.create 65536 in
  let next = ref 0 and answered = ref 0 in
  Job.start ();
  let sched =
    Array.init requests (fun i -> Job.j.t0 +. 0.001 +. (float_of_int i /. rate))
  in
  let deadline = sched.(requests - 1) +. 30. in
  let receive now c =
    let n =
      try Unix.read c.fd buf 0 (Bytes.length buf) with Unix.Unix_error _ -> 0
    in
    if n = 0 then raise Exit;
    Http.Rparser.feed c.parser buf 0 n;
    let rec drain () =
      match Http.Rparser.next c.parser with
      | `Response r ->
          let i = Queue.pop c.pending in
          lat.(i) <- now -. sched.(i);
          Span.record_async sp_request.(kind_index kinds.(i)) ~req:i
            ~start:sched.(i) ~stop:now;
          ok.(i) <-
            r.Http.status = 200
            && check_body ~seed expect kinds.(i) r.Http.body;
          incr answered;
          drain ()
      | `Await -> ()
      | `Error _ -> raise Exit
    in
    drain ()
  in
  (try
     while !answered < requests && Span.now () < deadline do
       let now = Span.now () in
       if !next < requests && sched.(!next) <= now then begin
         let s = Span.enter sp_send in
         while !next < requests && sched.(!next) <= now do
           let i = !next in
           let c = cs.(i mod conns) in
           write_all c.fd wires.(kind_index kinds.(i)) 0;
           last_sent := Span.now ();
           Queue.push i c.pending;
           incr next
         done;
         Span.exit s
       end;
       let timeout =
         if !next < requests then Float.max 0. (sched.(!next) -. Span.now ())
         else 0.05
       in
       let s = Span.enter sp_wait in
       let fds = Array.to_list (Array.map (fun c -> c.fd) cs) in
       let readable, _, _ = Unix.select fds [] [] timeout in
       Span.exit s;
       if readable <> [] then begin
         let s = Span.enter sp_recv in
         let now = Span.now () in
         Array.iter (fun c -> if List.mem c.fd readable then receive now c) cs;
         Span.exit s
       end
     done
   with Exit -> ());
  Job.finish ();
  Array.iter (fun c -> Unix.close c.fd) cs;
  let snap = Metrics.snapshot (Server.metrics srv) in
  Server.stop srv;
  let metric k = Option.value ~default:0. (List.assoc_opt k snap) in
  let failed = Array.fold_left (fun n b -> if b then n else n + 1) 0 ok in
  let errors = ref [] in
  Job.check errors (failed = 0)
    "%d of %d requests not answered 200 with a well-formed body" failed
    requests;
  let answered_ms pred =
    List.init requests Fun.id
    |> List.filter_map (fun i ->
           if ok.(i) && pred kinds.(i) then Some (1000. *. lat.(i)) else None)
    |> Array.of_list
  in
  let p50 kind =
    let a = answered_ms (( = ) kind) in
    Array.sort Float.compare a;
    if a = [||] then 0. else a.(Array.length a / 2)
  in
  let late = !last_sent -. sched.(requests - 1) in
  {
    Job.units = requests;
    latencies_ms = answered_ms (fun _ -> true);
    stats =
      [
        ("requests", Jsonx.Int requests);
        ( "by_path",
          Jsonx.Obj
            (List.map
               (fun k ->
                 ( kind_name k,
                   Jsonx.Int
                     (Array.fold_left
                        (fun n x -> if x = k then n + 1 else n)
                        0 kinds) ))
               (Array.to_list kinds_all)) );
        ( "simulate_body_md5",
          Jsonx.Str (Digest.to_hex (Digest.string expect.simulate)) );
      ];
    attempted = requests;
    failed;
    errors = !errors;
    layers =
      [
        ("serve.healthz_p50_ms", p50 Healthz);
        ("serve.sweep_p50_ms", p50 Sweep);
        ("serve.simulate_p50_ms", p50 Simulate);
        ("serve.queue_depth_peak", metric "serve_queue_depth_peak");
        ("serve.cache_hits", metric "serve_cache_hits_total");
        ("serve.shed", metric "serve_shed_total");
        ("serve.rejected", metric "serve_rejected_total");
        ("loadgen.late_ms", 1000. *. late);
      ];
    replay_s = 0.;
  }
