(* One network, two engines.

   [Network] is the reference record engine; [Soa] is the struct-of-arrays
   core with optional domain-partitioned stepping.  Every caller that runs
   "an engine" — the differ's arms, fabric scenarios — goes through this
   one stepping, rerouting and observation surface. *)

type injection = Network.injection = { route : int array; tag : string }

type t = Record of Network.t | Soa of Soa.t

let create ?log_injections ?tie_order ?capacity
    ?(backend = `Record) ~graph ~policy () =
  match backend with
  | `Record ->
      Record
        (Network.create ?log_injections ?tie_order ?capacity
           ~recycle:true ~graph ~policy ())
  | `Soa domains ->
      Soa
        (Soa.create ?log_injections ?tie_order ?capacity
           ~domains ~graph ~policy ())

let kind = function
  | Record _ -> "record"
  | Soa s -> Printf.sprintf "soa-d%d" (Soa.domains s)

let place_initial t ?tag route =
  match t with
  | Record n -> (Network.place_initial n ?tag route).Packet.id
  | Soa s -> Soa.place_initial ?tag s route

let step t injections =
  match t with
  | Record n -> Network.step n injections
  | Soa s -> Soa.step s injections

(* Selection happens before any rewrite, so a reroute cannot change which
   packets the predicate sees. *)
let reroute_where t pred suffix =
  match t with
  | Soa s -> Soa.reroute_where s pred suffix
  | Record n ->
      let victims = ref [] in
      Network.iter_buffered
        (fun p ->
          if
            pred ~id:p.Packet.id ~edge:(Packet.current_edge p)
              ~remaining:(Packet.remaining p)
          then victims := p :: !victims)
        n;
      List.iter (fun p -> Network.reroute n p suffix) !victims

let shutdown = function Record _ -> () | Soa s -> Soa.shutdown s

type view = Soa.view = {
  v_id : int;
  v_injected_at : int;
  v_hop : int;
  v_buffered_at : int;
  v_route : int array;
}

let view_of_packet (p : Packet.t) =
  {
    v_id = p.id;
    v_injected_at = p.injected_at;
    v_hop = p.hop;
    v_buffered_at = p.buffered_at;
    v_route = p.route;
  }

let graph = function Record n -> Network.graph n | Soa s -> Soa.graph s

let buffer_len t e =
  match t with
  | Record n -> Network.buffer_len n e
  | Soa s -> Soa.buffer_len s e

let buffer_packets t e =
  match t with
  | Record n -> List.map view_of_packet (Network.buffer_packets n e)
  | Soa s -> Soa.buffer_packets s e

let in_flight = function
  | Record n -> Network.in_flight n
  | Soa s -> Soa.in_flight s

let absorbed = function
  | Record n -> Network.absorbed n
  | Soa s -> Soa.absorbed s

let injected_count = function
  | Record n -> Network.injected_count n
  | Soa s -> Soa.injected_count s

let initial_count = function
  | Record n -> Network.initial_count n
  | Soa s -> Soa.initial_count s

let dropped = function Record n -> Network.dropped n | Soa s -> Soa.dropped s

let displaced = function
  | Record n -> Network.displaced n
  | Soa s -> Soa.displaced s

let dropped_on_edge t e =
  match t with
  | Record n -> Network.dropped_on_edge n e
  | Soa s -> Soa.dropped_on_edge s e

let occupancy = function
  | Record n -> Network.occupancy n
  | Soa s -> Soa.occupancy s

let peak_occupancy = function
  | Record n -> Network.peak_occupancy n
  | Soa s -> Soa.peak_occupancy s

let max_queue_ever = function
  | Record n -> Network.max_queue_ever n
  | Soa s -> Soa.max_queue_ever s

let max_queue_of_edge t e =
  match t with
  | Record n -> Network.max_queue_of_edge n e
  | Soa s -> Soa.max_queue_of_edge s e

let sent_on_edge t e =
  match t with
  | Record n -> Network.sent_on_edge n e
  | Soa s -> Soa.sent_on_edge s e

let max_dwell = function
  | Record n -> Network.max_dwell n
  | Soa s -> Soa.max_dwell s

let max_pending_dwell = function
  | Record n -> Network.max_pending_dwell n
  | Soa s -> Soa.max_pending_dwell s

let delivered_latency_max = function
  | Record n -> Network.delivered_latency_max n
  | Soa s -> Soa.delivered_latency_max s

let delivered_latency_mean = function
  | Record n -> Network.delivered_latency_mean n
  | Soa s -> Soa.delivered_latency_mean s

let reroute_count = function
  | Record n -> Network.reroute_count n
  | Soa s -> Soa.reroute_count s

let last_injection_on t e =
  match t with
  | Record n -> Network.last_injection_on n e
  | Soa s -> Soa.last_injection_on s e

let injection_log = function
  | Record n -> Network.injection_log n
  | Soa s -> Soa.injection_log s
