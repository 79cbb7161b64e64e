module Dyn = Aqt_util.Dynarray_compat

type event =
  | Injected of { t : int; packet : int; edge : int; route_len : int; initial : bool }
  | Forwarded of { t : int; packet : int; edge : int; dwell : int }
  | Absorbed of { t : int; packet : int; latency : int }
  | Rerouted of { t : int; packet : int; route_len : int }
  | Dropped of { t : int; packet : int; edge : int; displaced : bool }

let pp_event fmt = function
  | Injected { t; packet; edge; route_len; initial } ->
      Format.fprintf fmt "t=%d inject #%d at edge %d (route %d%s)" t packet
        edge route_len
        (if initial then ", initial" else "")
  | Forwarded { t; packet; edge; dwell } ->
      Format.fprintf fmt "t=%d forward #%d over edge %d (dwell %d)" t packet
        edge dwell
  | Absorbed { t; packet; latency } ->
      Format.fprintf fmt "t=%d absorb #%d (latency %d)" t packet latency
  | Rerouted { t; packet; route_len } ->
      Format.fprintf fmt "t=%d reroute #%d (route now %d)" t packet route_len
  | Dropped { t; packet; edge; displaced } ->
      Format.fprintf fmt "t=%d drop #%d at edge %d (%s)" t packet edge
        (if displaced then "displaced" else "overflow")

let packet_of = function
  | Injected { packet; _ }
  | Forwarded { packet; _ }
  | Absorbed { packet; _ }
  | Rerouted { packet; _ }
  | Dropped { packet; _ } ->
      packet

type t = { store : event Dyn.t }

let create () = { store = Dyn.create () }
let handler t e = Dyn.push t.store e
let length t = Dyn.length t.store
let events t = Dyn.to_array t.store

let packet_history t id =
  List.rev
    (Dyn.fold_left
       (fun acc e -> if packet_of e = id then e :: acc else acc)
       [] t.store)

let count p t =
  Dyn.fold_left (fun acc e -> if p e then acc + 1 else acc) 0 t.store

let count_forwarded t =
  count (function Forwarded _ -> true | _ -> false) t

let count_absorbed t = count (function Absorbed _ -> true | _ -> false) t
let count_injected t = count (function Injected _ -> true | _ -> false) t
let count_rerouted t = count (function Rerouted _ -> true | _ -> false) t
let count_dropped t = count (function Dropped _ -> true | _ -> false) t

let hop_times t id =
  List.filter_map
    (function
      | Forwarded { t; packet; edge; _ } when packet = id -> Some (t, edge)
      | _ -> None)
    (Array.to_list (events t))
