module Network = Aqt_engine.Network
module Packet = Aqt_engine.Packet

type measurement = {
  s_epath : int;
  s_ingress : int;
  empty_e_buffers : int;
  bad_e_routes : int;
  bad_ingress_routes : int;
  extraneous : int;
  egress_occupancy : int;
}

(* Clause checks compare remaining routes for equality, not as a prefix:
   a packet whose remaining route *starts with* the required path and then
   leaves the gadget would violate clause (4) in spirit, and Def 3.5 pins
   the remaining routes exactly. *)
let measure net (g : Gadget.t) ~k =
  let n = g.n in
  let s_epath = ref 0 in
  let empty_e_buffers = ref 0 in
  let bad_e_routes = ref 0 in
  for i = 1 to n do
    let edge = g.e.(k - 1).(i - 1) in
    let packets = Network.buffer_packets net edge in
    let len = List.length packets in
    s_epath := !s_epath + len;
    if len = 0 then incr empty_e_buffers;
    let expected = Gadget.e_remaining g ~k ~i in
    List.iter
      (fun p ->
        if not (Packet.remaining_equals p expected) then incr bad_e_routes)
      packets
  done;
  let ingress = Gadget.ingress g ~k in
  let ingress_packets = Network.buffer_packets net ingress in
  let expected_ingress = Gadget.ingress_remaining g ~k in
  let bad_ingress_routes =
    List.length
      (List.filter
         (fun p -> not (Packet.remaining_equals p expected_ingress))
         ingress_packets)
  in
  let extraneous = ref 0 in
  Array.iter
    (fun edge -> extraneous := !extraneous + Network.buffer_len net edge)
    g.f.(k - 1);
  let egress_occupancy = Network.buffer_len net (Gadget.egress g ~k) in
  {
    s_epath = !s_epath;
    s_ingress = List.length ingress_packets;
    empty_e_buffers = !empty_e_buffers;
    bad_e_routes = !bad_e_routes;
    bad_ingress_routes;
    extraneous = !extraneous;
    egress_occupancy;
  }

let check_strict net g ~k =
  let m = measure net g ~k in
  if m.empty_e_buffers > 0 then
    Error (Printf.sprintf "%d empty e-buffers" m.empty_e_buffers)
  else if m.bad_e_routes > 0 then
    Error (Printf.sprintf "%d e-path packets with wrong routes" m.bad_e_routes)
  else if m.bad_ingress_routes > 0 then
    Error
      (Printf.sprintf "%d ingress packets with wrong routes"
         m.bad_ingress_routes)
  else if m.extraneous > 0 then
    Error (Printf.sprintf "%d extraneous packets in gadget" m.extraneous)
  else if m.egress_occupancy > 0 then
    Error (Printf.sprintf "%d packets in the egress buffer" m.egress_occupancy)
  else if m.s_epath <> m.s_ingress then
    Error
      (Printf.sprintf "e-path holds %d packets but ingress holds %d"
         m.s_epath m.s_ingress)
  else Ok m.s_epath

let holds_with_slack ~slack net g ~k =
  let m = measure net g ~k in
  m.empty_e_buffers = 0
  && m.bad_e_routes <= slack
  && m.bad_ingress_routes <= slack
  && m.extraneous <= slack
  && m.s_epath > 0
  && m.s_ingress > 0
  && abs (m.s_epath - m.s_ingress) <= slack

let gadget_occupancy net g ~k =
  List.fold_left
    (fun acc e -> acc + Network.buffer_len net e)
    0
    (Gadget.gadget_edges g ~k)
