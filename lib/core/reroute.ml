module Network = Aqt_engine.Network
module Packet = Aqt_engine.Packet
module Ratio = Aqt_util.Ratio

type error =
  | Policy_not_historic of string
  | No_shared_edge
  | Stale_edge of { edge : int; last_used : int; threshold : int }
  | Packet_absorbed of int
  | Invalid_path of string

let pp_error fmt = function
  | Policy_not_historic name ->
      Format.fprintf fmt "policy %s is not historic (Def 3.1)" name
  | No_shared_edge ->
      Format.fprintf fmt "packets do not share a common route edge"
  | Stale_edge { edge; last_used; threshold } ->
      Format.fprintf fmt
        "edge %d is not new (Def 3.2): last injected at %d, threshold %d" edge
        last_used threshold
  | Packet_absorbed id -> Format.fprintf fmt "packet #%d already absorbed" id
  | Invalid_path msg -> Format.fprintf fmt "invalid path: %s" msg

let ( let* ) r f = Result.bind r f

let check_new_edges ~rate net suffix =
  (* Def 3.2: new edges must be absent from every route injected at time
     tau >= t* - ceil(1/r). *)
  let t_star = Network.min_injection_time_in_flight net in
  let threshold = t_star - Ratio.ceil (Ratio.inv rate) in
  let rec go i =
    if i >= Array.length suffix then Ok ()
    else begin
      let e = suffix.(i) in
      let last_used = Network.last_injection_on net e in
      if last_used >= threshold then Error (Stale_edge { edge = e; last_used; threshold })
      else go (i + 1)
    end
  in
  go 0

(* A Def 3.5 class: the packets that carry one route array and stand at one
   hop, hence share one remaining route.  The network interns every route it
   installs, so packets with equal routes carry the same array, and one
   physical comparison groups them. *)
type cls = {
  route : int array;
  hop : int;
  first : Packet.t;  (* earliest member in input order: named in errors *)
  mutable tail : int array;  (* what Network.reroute installs after [hop] *)
}

let rec class_of (p : Packet.t) = function
  | [] -> raise Not_found
  | c :: rest ->
      if c.route == p.route && c.hop = p.hop then c else class_of p rest

(* Classes in order of first appearance.  Finding a packet's class is
   linear in the number of classes: at most 91 in thm317, against 41,194
   packets in that call. *)
let classes_of packets =
  List.rev
    (List.fold_left
       (fun classes (p : Packet.t) ->
         match class_of p classes with
         | _ -> classes
         | exception Not_found ->
             { route = p.route; hop = p.hop; first = p; tail = [||] }
             :: classes)
       [] packets)

let rec mem_from (route : int array) e i =
  i < Array.length route
  && (Array.unsafe_get route i = e || mem_from route e (i + 1))

(* Some edge of the first class's remaining route lies on every class's. *)
let shared_edge_exists = function
  | [] -> true
  | first :: rest ->
      let rec from i =
        i < Array.length first.route
        && (List.for_all (fun c -> mem_from c.route first.route.(i) c.hop) rest
           || from (i + 1))
      in
      from first.hop

let extend_all ~rate net ~packets ~suffix =
  if packets = [] || Array.length suffix = 0 then Ok ()
  else begin
    let policy = Network.policy net in
    let* () =
      if policy.historic then Ok () else Error (Policy_not_historic policy.name)
    in
    let* () =
      match List.find_opt Packet.is_absorbed packets with
      | Some p -> Error (Packet_absorbed p.id)
      | None -> Ok ()
    in
    let classes = classes_of packets in
    let* () =
      if shared_edge_exists classes then Ok () else Error No_shared_edge
    in
    let* () = check_new_edges ~rate net suffix in
    (* Validate every class's extension before mutating anything. *)
    let graph = Network.graph net in
    let* () =
      let rec validate = function
        | [] -> Ok ()
        | c :: rest ->
            let route = Array.append c.route suffix in
            if Aqt_graph.Digraph.route_is_simple graph route then begin
              (* Network.reroute replaces everything beyond the next edge:
                 the old remainder after it, then the suffix. *)
              c.tail <-
                Array.sub route (c.hop + 1) (Array.length route - c.hop - 1);
              validate rest
            end
            else
              Error
                (Invalid_path
                   (Format.asprintf "packet #%d: %a" c.first.id
                      (Aqt_graph.Digraph.pp_route graph)
                      route))
      in
      validate classes
    in
    List.iter
      (fun p -> Network.reroute net p (class_of p classes).tail)
      packets;
    Ok ()
  end
