module D = Aqt_graph.Digraph

type t = {
  graph : D.t;
  n : int;
  f_len : int;
  m_gadgets : int;
  a : int array;
  e : int array array;
  f : int array array;
  e0 : int option;
}

(* Node layout: the shared edge a_k runs x_k -> y_k; gadget k's two paths run
   from y_(k-1) to x_k through n-1 fresh intermediate nodes each. *)
let build ~n ~f_len ~m ~cyclic =
  if n < 1 then invalid_arg "Gadget: n must be >= 1";
  if f_len < 1 || f_len > n then
    invalid_arg "Gadget: f_len must be in [1, n]";
  if m < 1 then invalid_arg "Gadget: m must be >= 1";
  let g = D.create () in
  let x = Array.init (m + 1) (fun k -> D.add_node ~name:(Printf.sprintf "x%d" k) g) in
  let y = Array.init (m + 1) (fun k -> D.add_node ~name:(Printf.sprintf "y%d" k) g) in
  let a =
    Array.init (m + 1) (fun k ->
        D.add_edge ~label:(Printf.sprintf "a%d" k) g ~src:x.(k) ~dst:y.(k))
  in
  let path k name len =
    (* len edges from y_(k-1) to x_k. *)
    let prev = ref y.(k - 1) in
    Array.init len (fun i ->
        let next =
          if i = len - 1 then x.(k)
          else D.add_node ~name:(Printf.sprintf "%s%d_%d" name k (i + 1)) g
        in
        let e =
          D.add_edge
            ~label:(Printf.sprintf "%s%d_%d" name k (i + 1))
            g ~src:!prev ~dst:next
        in
        prev := next;
        e)
  in
  let e = Array.init m (fun k -> path (k + 1) "e" n) in
  let f = Array.init m (fun k -> path (k + 1) "f" f_len) in
  let e0 =
    if cyclic then
      Some (D.add_edge ~label:"e0" g ~src:y.(m) ~dst:x.(0))
    else None
  in
  { graph = g; n; f_len; m_gadgets = m; a; e; f; e0 }

let chain ?f_len ~n ~m () =
  build ~n ~f_len:(Option.value f_len ~default:n) ~m ~cyclic:false

let fn ~n = chain ~n ~m:1 ()

let cyclic ?f_len ~n ~m () =
  build ~n ~f_len:(Option.value f_len ~default:n) ~m ~cyclic:true

let check_k t k =
  if k < 1 || k > t.m_gadgets then
    invalid_arg (Printf.sprintf "Gadget: gadget index %d out of range" k)

let ingress t ~k =
  check_k t k;
  t.a.(k - 1)

let egress t ~k =
  check_k t k;
  t.a.(k)

let stitch_edge t =
  match t.e0 with
  | Some e -> e
  | None -> invalid_arg "Gadget.stitch_edge: not a cyclic graph"

let seed_route t = [| t.a.(0) |]

let seed t net count =
  let route = seed_route t in
  for _ = 1 to count do
    ignore (Aqt_engine.Network.place_initial ~tag:"seed" net route)
  done

let e_remaining t ~k ~i =
  check_k t k;
  if i < 1 || i > t.n then invalid_arg "Gadget.e_remaining: i out of range";
  let path = t.e.(k - 1) in
  Array.append (Array.sub path (i - 1) (t.n - i + 1)) [| t.a.(k) |]

let ingress_remaining t ~k =
  check_k t k;
  Array.concat [ [| t.a.(k - 1) |]; t.f.(k - 1); [| t.a.(k) |] ]

let extension_suffix t ~k =
  check_k t k;
  if k = t.m_gadgets then
    invalid_arg "Gadget.extension_suffix: gadget has no successor";
  Array.append t.e.(k) [| t.a.(k + 1) |]

let startup_extension t = Array.append t.e.(0) [| t.a.(1) |]

let pump_long_route t ~k =
  check_k t k;
  if k = t.m_gadgets then
    invalid_arg "Gadget.pump_long_route: gadget has no successor";
  Array.concat
    [ [| t.a.(k - 1) |]; t.f.(k - 1); [| t.a.(k) |]; t.f.(k); [| t.a.(k + 1) |] ]

let pump_tail_route t ~k =
  check_k t k;
  if k = t.m_gadgets then
    invalid_arg "Gadget.pump_tail_route: gadget has no successor";
  Array.concat [ [| t.a.(k) |]; t.f.(k); [| t.a.(k + 1) |] ]

let startup_long_route t = ingress_remaining t ~k:1

let stitch_route t =
  let e0 = stitch_edge t in
  [| t.a.(t.m_gadgets); e0; t.a.(0) |]

let gadget_edges t ~k =
  check_k t k;
  (t.a.(k - 1) :: Array.to_list t.e.(k - 1))
  @ Array.to_list t.f.(k - 1)
  @ [ t.a.(k) ]

let describe t =
  Printf.sprintf "F_(%d,%d)^%d%s: %d nodes, %d edges" t.n t.f_len t.m_gadgets
    (if t.e0 = None then "" else "+e0")
    (D.n_nodes t.graph) (D.n_edges t.graph)
