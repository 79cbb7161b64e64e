module Network = Aqt_engine.Network
module Sim = Aqt_engine.Sim
module Flow = Aqt_adversary.Flow
module Phased = Aqt_adversary.Phased

type plan = {
  total_old : int;
  s_ingress : int;
  duration : int;
  s_target : int;
  x : int;
  flows : Flow.t list;
}

let plan ~(params : Params.t) ~gadget ~k ~start ~total_old ~s_ingress =
  let tau = start - 1 in
  let r = params.r and n = params.n and rate = params.rate in
  let s_target = Params.s' ~r ~n ~total_old in
  let x = Params.x_param ~r ~n ~total_old ~s_ingress in
  let short_flows =
    List.init n (fun idx ->
        let i = idx + 1 in
        let ti = Params.ti ~r ~n ~total_old ~i in
        Flow.make ~tag:(Printf.sprintf "short%d" i)
          ~route:[| gadget.Gadget.e.(k).(i - 1) |]
          ~rate ~start:(tau + i) ~stop:(tau + i + ti) ())
  in
  let long_flow =
    Flow.make ~tag:"long" ~route:(Gadget.pump_long_route gadget ~k) ~rate
      ~start:(tau + 1) ~stop:(tau + s_ingress) ()
  in
  let tail_flow =
    if x = 0 then []
    else
      [
        Flow.make ~tag:"tail" ~max_total:x
          ~route:(Gadget.pump_tail_route gadget ~k) ~rate
          ~start:(tau + s_ingress + n + 1)
          ~stop:(tau + (2 * s_ingress) + n)
          ();
      ]
  in
  {
    total_old;
    s_ingress;
    duration = total_old + n;
    s_target;
    x;
    flows = (long_flow :: tail_flow) @ short_flows;
  }

(* Old packets of gadget k: the e-path and ingress packets whose remaining
   routes match Def 3.5 exactly.  Stragglers from earlier phases (single-edge
   scaffolding not yet absorbed) are left alone.  Returns one list, the
   e-path buffers' packets from e_1 on and then the ingress buffer's, each
   buffer in forwarding order, with the e-path and ingress counts.  The
   buffers are folded from the back, so an old packet costs one cons. *)
let old_packets net gadget ~k =
  let collect edge expected count acc =
    Network.fold_buffer
      (fun p acc ->
        if Aqt_engine.Packet.remaining_equals p expected then begin
          incr count;
          p :: acc
        end
        else acc)
      net edge acc
  in
  let in_e = ref 0 and in_ingress = ref 0 in
  let acc =
    collect (Gadget.ingress gadget ~k) (Gadget.ingress_remaining gadget ~k)
      in_ingress []
  in
  let rec e_path i acc =
    if i = 0 then acc
    else
      e_path (i - 1)
        (collect
           gadget.Gadget.e.(k - 1).(i - 1)
           (Gadget.e_remaining gadget ~k ~i)
           in_e acc)
  in
  let packets = e_path gadget.Gadget.n acc in
  (packets, !in_e, !in_ingress)

let phase ?(flow_filter = fun _ -> true) ~params ~gadget ~k : Phased.phase =
 fun net start ->
  let packets, in_e, s_ingress = old_packets net gadget ~k in
  let total_old = in_e + s_ingress in
  let n = params.Params.n in
  if in_e < n || s_ingress < n then
    failwith
      (Printf.sprintf
         "Pump.phase: C(S, F(%d)) precondition not met (e-path holds %d, \
          ingress holds %d; need >= n = %d each)"
         k in_e s_ingress n);
  (match
     Reroute.extend_all ~rate:params.Params.rate net ~packets
       ~suffix:(Gadget.extension_suffix gadget ~k)
   with
  | Ok () -> ()
  | Error e ->
      failwith
        (Format.asprintf "Pump.phase: rerouting rejected: %a" Reroute.pp_error
           e));
  let p = plan ~params ~gadget ~k ~start ~total_old ~s_ingress in
  let flows = List.filter flow_filter p.flows in
  (Sim.injections_only (fun _ t -> Flow.injections_at flows t), p.duration)
