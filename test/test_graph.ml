(* Tests for the directed-graph substrate and topology generators. *)

module D = Aqt_graph.Digraph
module B = Aqt_graph.Build
module Prng = Aqt_util.Prng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let triangle () =
  (* v0 -> v1 -> v2 -> v0 *)
  let g = D.create () in
  let v = D.add_nodes g 3 in
  let e01 = D.add_edge g ~src:v.(0) ~dst:v.(1) in
  let e12 = D.add_edge g ~src:v.(1) ~dst:v.(2) in
  let e20 = D.add_edge g ~src:v.(2) ~dst:v.(0) in
  (g, v, (e01, e12, e20))

let digraph_basics () =
  let g, v, (e01, e12, e20) = triangle () in
  check_int "nodes" 3 (D.n_nodes g);
  check_int "edges" 3 (D.n_edges g);
  check_int "src" v.(0) (D.src g e01);
  check_int "dst" v.(1) (D.dst g e01);
  check_bool "out edges" true (D.out_edges g v.(1) = [ e12 ]);
  check_bool "in edges" true (D.in_edges g v.(0) = [ e20 ]);
  check_int "out degree" 1 (D.out_degree g v.(2));
  check_int "in degree" 1 (D.in_degree g v.(2));
  check_int "max in-degree" 1 (D.max_in_degree g);
  check_bool "find_edge hit" true (D.find_edge g ~src:v.(0) ~dst:v.(1) = Some e01);
  check_bool "find_edge miss" true (D.find_edge g ~src:v.(0) ~dst:v.(2) = None)

let digraph_labels () =
  let g = D.create () in
  let a = D.add_node ~name:"left" g and b = D.add_node g in
  let e = D.add_edge ~label:"bridge" g ~src:a ~dst:b in
  check_bool "node name" true (D.node_name g a = "left");
  check_bool "default node name" true (D.node_name g b = "v1");
  check_bool "edge label" true (D.label g e = "bridge");
  check_int "lookup by label" e (D.edge_by_label g "bridge");
  Alcotest.check_raises "unknown label" Not_found (fun () ->
      ignore (D.edge_by_label g "nope"))

let digraph_rejects () =
  let g = D.create () in
  let a = D.add_node g in
  Alcotest.check_raises "self loop"
    (Invalid_argument "Digraph.add_edge: self-loops are not allowed")
    (fun () -> ignore (D.add_edge g ~src:a ~dst:a));
  Alcotest.check_raises "bad endpoint"
    (Invalid_argument "Digraph.add_edge: destination 7 is not a node")
    (fun () -> ignore (D.add_edge g ~src:a ~dst:7))

let parallel_edges_allowed () =
  let g = D.create () in
  let a = D.add_node g and b = D.add_node g in
  let e1 = D.add_edge g ~src:a ~dst:b in
  let e2 = D.add_edge g ~src:a ~dst:b in
  check_bool "distinct ids" true (e1 <> e2);
  check_int "multigraph degree" 2 (D.out_degree g a)

let route_validation () =
  let g, _, (e01, e12, e20) = triangle () in
  check_bool "valid path" true (D.route_is_path g [| e01; e12 |]);
  check_bool "full cycle is a path" true (D.route_is_path g [| e01; e12; e20 |]);
  check_bool "disconnected" false (D.route_is_path g [| e01; e20 |]);
  check_bool "empty" false (D.route_is_path g [||]);
  check_bool "simple" true (D.route_is_simple g [| e01; e12; e20 |]);
  check_bool "repeat rejected" false
    (D.route_is_simple g [| e01; e12; e20; e01 |]);
  check_int "length" 2 (D.route_length [| e01; e12 |]);
  check_bool "route nodes" true (D.route_nodes g [| e01; e12 |] = [ 0; 1; 2 ])

let dag_and_topo () =
  let g, _, _ = triangle () in
  check_bool "cycle not dag" false (D.is_dag g);
  check_bool "no topo order" true (D.topological_order g = None);
  let line = B.line 5 in
  check_bool "line is dag" true (D.is_dag line.graph);
  match D.topological_order line.graph with
  | None -> Alcotest.fail "line must have a topological order"
  | Some order ->
      check_bool "topo order respects edges" true
        (let pos = Array.make (Array.length order) 0 in
         Array.iteri (fun i v -> pos.(v) <- i) order;
         Array.for_all
           (fun (e : D.edge) -> pos.(e.src) < pos.(e.dst))
           (D.edges line.graph))

let reachability () =
  let line = B.line 4 in
  let r = D.reachable line.graph line.nodes.(1) in
  check_bool "forward reachable" true r.(line.nodes.(4));
  check_bool "not backward" false r.(line.nodes.(0));
  check_bool "self" true r.(line.nodes.(1))

let shortest_paths () =
  let ring = B.ring 6 in
  (match D.shortest_path ring.graph ~src:ring.nodes.(0) ~dst:ring.nodes.(4) with
  | None -> Alcotest.fail "ring is strongly connected"
  | Some route ->
      check_int "hops around ring" 4 (Array.length route);
      check_bool "valid" true (D.route_is_simple ring.graph route));
  check_bool "self path" true
    (D.shortest_path ring.graph ~src:0 ~dst:0 = Some [||]);
  let line = B.line 3 in
  check_bool "unreachable" true
    (D.shortest_path line.graph ~src:line.nodes.(3) ~dst:line.nodes.(0) = None)

(* Generators *)

let build_line () =
  let l = B.line 7 in
  check_int "nodes" 8 (D.n_nodes l.graph);
  check_int "edges" 7 (D.n_edges l.graph);
  check_bool "edges form a route" true (D.route_is_simple l.graph l.edges)

let build_ring () =
  let r = B.ring 5 in
  check_int "nodes" 5 (D.n_nodes r.graph);
  check_int "edges" 5 (D.n_edges r.graph);
  for i = 0 to 4 do
    check_int "out deg" 1 (D.out_degree r.graph i);
    check_int "in deg" 1 (D.in_degree r.graph i)
  done;
  check_bool "wraps" true (D.dst r.graph r.edges.(4) = r.nodes.(0))

let build_parallel () =
  let p = B.parallel_paths ~branches:3 ~hops:4 in
  check_int "edges" 12 (D.n_edges p.graph);
  Array.iter
    (fun path ->
      check_bool "branch is route" true (D.route_is_simple p.graph path);
      check_int "branch src" p.source (D.src p.graph path.(0));
      check_int "branch dst" p.sink (D.dst p.graph path.(3)))
    p.paths;
  (* Branches are edge-disjoint. *)
  let all = Array.to_list (Array.concat (Array.to_list p.paths)) in
  check_int "disjoint" (List.length all)
    (List.length (List.sort_uniq compare all))

let build_grid () =
  let g = B.grid ~rows:3 ~cols:4 in
  check_int "nodes" 12 (D.n_nodes g.graph);
  (* Edges: right 3*(4-1) + down (3-1)*4 = 9 + 8 *)
  check_int "edges" 17 (D.n_edges g.graph);
  check_bool "dag" true (D.is_dag g.graph)

let build_in_tree () =
  let t = B.in_tree ~depth:3 in
  check_int "leaves" 8 (Array.length t.leaves);
  check_int "nodes" 15 (D.n_nodes t.graph);
  check_int "edges" 14 (D.n_edges t.graph);
  check_bool "dag" true (D.is_dag t.graph);
  Array.iter
    (fun leaf ->
      let r = D.reachable t.graph leaf in
      check_bool "leaf reaches root" true r.(t.root))
    t.leaves;
  check_int "root alpha" 2 (D.in_degree t.graph t.root)

(* Named networks: one parser for the CLI and the serve API. *)

let net_spec_parse () =
  let module N = Aqt_graph.Net_spec in
  List.iter
    (fun n ->
      let s = N.to_string n in
      check_bool ("round-trip " ^ s) true (N.parse ~max_size:max_int s = Ok n))
    [ N.Line 1; N.Line 7; N.Ring 3; N.Ring 100 ];
  check_bool "blanks" true (N.parse ~max_size:8 " ring:8 " = Ok (N.Ring 8));
  let rejects ~max_size s msg =
    Alcotest.(check (result reject string))
      s (Error msg)
      (Result.map ignore (N.parse ~max_size s))
  in
  rejects ~max_size:max_int "line:0"
    "network \"line:0\": size must be at least 1";
  rejects ~max_size:max_int "ring:2"
    "network \"ring:2\": size must be at least 3";
  rejects ~max_size:4096 "ring:0"
    "network \"ring:0\": size out of range [3, 4096]";
  rejects ~max_size:4096 "line:4097"
    "network \"line:4097\": size out of range [1, 4096]";
  rejects ~max_size:8 "ring:x" "network \"ring:x\": bad size";
  rejects ~max_size:8 "star:4"
    "unknown network \"star:4\" (line:K | ring:K)"

let net_spec_build () =
  let module N = Aqt_graph.Net_spec in
  let g, routes = N.build ~d:4 (N.Ring 5) in
  check_int "ring edges" 5 (D.n_edges g);
  check_int "one route per start edge" 5 (List.length routes);
  check_bool "ring routes simple, length 4" true
    (List.for_all
       (fun r -> Array.length r = 4 && D.route_is_simple g r)
       routes);
  let g, routes = N.build ~d:9 (N.Line 3) in
  check_int "line edges" 3 (D.n_edges g);
  check_bool "d clamps to the line" true (routes = [ [| 0; 1; 2 |] ])

(* Parameter validation (clear messages, not asserts). *)

let builder_rejects () =
  Alcotest.check_raises "grid zero rows"
    (Invalid_argument
       "Build.grid: rows and cols must be >= 1 (got rows=0 cols=4)")
    (fun () -> ignore (B.grid ~rows:0 ~cols:4));
  Alcotest.check_raises "torus thin"
    (Invalid_argument
       "Build.torus: rows and cols must be >= 2 (got rows=1 cols=5)")
    (fun () -> ignore (B.torus ~rows:1 ~cols:5));
  Alcotest.check_raises "fat tree odd"
    (Invalid_argument "Build.fat_tree: k must be even and >= 2 (got 3)")
    (fun () -> ignore (B.fat_tree ~k:3));
  Alcotest.check_raises "fat tree non-positive"
    (Invalid_argument "Build.fat_tree: k must be even and >= 2 (got 0)")
    (fun () -> ignore (B.fat_tree ~k:0));
  Alcotest.check_raises "spine-leaf no spines"
    (Invalid_argument "Build.spine_leaf: need at least one spine (got 0)")
    (fun () -> ignore (B.spine_leaf ~spines:0 ~leaves:2 ~hosts_per_leaf:1));
  Alcotest.check_raises "spine-leaf no leaves"
    (Invalid_argument "Build.spine_leaf: need at least one leaf (got -1)")
    (fun () -> ignore (B.spine_leaf ~spines:1 ~leaves:(-1) ~hosts_per_leaf:1));
  Alcotest.check_raises "spine-leaf no hosts"
    (Invalid_argument
       "Build.spine_leaf: need at least one host per leaf (got 0)")
    (fun () -> ignore (B.spine_leaf ~spines:1 ~leaves:2 ~hosts_per_leaf:0))

(* Datacenter fabrics *)

let check_all_routes (f : B.fabric) =
  let n = Array.length f.hosts in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      if src <> dst then begin
        let routes = f.routes ~src ~dst in
        check_int "ecmp_degree matches" (Array.length routes)
          (f.ecmp_degree ~src ~dst);
        check_bool "at least one route" true (Array.length routes > 0);
        Array.iter
          (fun route ->
            check_bool "route is a simple path" true
              (D.route_is_simple f.graph route);
            check_int "route starts at src host" f.hosts.(src)
              (D.src f.graph route.(0));
            check_int "route ends at dst host" f.hosts.(dst)
              (D.dst f.graph route.(Array.length route - 1)))
          routes;
        (* ECMP draws stay inside the candidate set and are seed-stable. *)
        let r1 = B.ecmp_route f ~seed:7 ~src ~dst ~flow:3 in
        let r2 = B.ecmp_route f ~seed:7 ~src ~dst ~flow:3 in
        check_bool "ecmp deterministic" true (r1 == r2 || r1 = r2)
      end
    done
  done

let build_spine_leaf () =
  let s = 3 and l = 4 and h = 2 in
  let f = B.spine_leaf ~spines:s ~leaves:l ~hosts_per_leaf:h in
  check_int "nodes" (s + l + (l * h)) (D.n_nodes f.graph);
  check_int "edges" ((2 * s * l) + (2 * l * h)) (D.n_edges f.graph);
  check_int "hosts" (l * h) (Array.length f.hosts);
  check_int "switches" (s + l) (Array.length f.switches);
  (* Same-leaf pairs have one 2-hop route; cross-leaf pairs fan over
     every spine with 4 hops. *)
  check_int "same-leaf degree" 1 (f.ecmp_degree ~src:0 ~dst:1);
  check_int "same-leaf hops" 2 (Array.length (f.routes ~src:0 ~dst:1).(0));
  check_int "cross-leaf degree" s (f.ecmp_degree ~src:0 ~dst:h);
  check_int "cross-leaf hops" 4 (Array.length (f.routes ~src:0 ~dst:h).(0));
  check_all_routes f

let build_fat_tree () =
  let k = 4 in
  let half = k / 2 in
  let f = B.fat_tree ~k in
  check_int "hosts" (k * k * k / 4) (Array.length f.hosts);
  check_int "switches" ((half * half) + (k * k)) (Array.length f.switches);
  check_int "nodes"
    ((half * half) + (k * k) + (k * k * k / 4))
    (D.n_nodes f.graph);
  check_int "edges" (3 * k * k * k / 2) (D.n_edges f.graph);
  (* ECMP degrees: same edge switch 1, same pod k/2, cross pod (k/2)^2. *)
  check_int "same edge-switch degree" 1 (f.ecmp_degree ~src:0 ~dst:1);
  check_int "same-pod degree" half (f.ecmp_degree ~src:0 ~dst:half);
  check_int "cross-pod degree" (half * half)
    (f.ecmp_degree ~src:0 ~dst:(half * half));
  check_int "same edge-switch hops" 2
    (Array.length (f.routes ~src:0 ~dst:1).(0));
  check_int "same-pod hops" 4 (Array.length (f.routes ~src:0 ~dst:half).(0));
  check_int "cross-pod hops" 6
    (Array.length (f.routes ~src:0 ~dst:(half * half)).(0));
  check_all_routes f

let prop_spine_leaf_counts =
  QCheck.Test.make ~name:"spine_leaf closed-form counts" ~count:50
    (QCheck.triple (QCheck.int_range 1 6) (QCheck.int_range 1 6)
       (QCheck.int_range 1 4))
    (fun (s, l, h) ->
      let f = B.spine_leaf ~spines:s ~leaves:l ~hosts_per_leaf:h in
      D.n_nodes f.graph = s + l + (l * h)
      && D.n_edges f.graph = (2 * s * l) + (2 * l * h)
      && Array.length f.hosts = l * h)

let prop_fabric_routes_simple =
  QCheck.Test.make ~name:"fabric routes are simple host-to-host paths"
    ~count:60
    (QCheck.triple (QCheck.int_range 1 4) (QCheck.int_range 2 5)
       (QCheck.int_range 1 3))
    (fun (s, l, h) ->
      let f = B.spine_leaf ~spines:s ~leaves:l ~hosts_per_leaf:h in
      let n = Array.length f.hosts in
      let ok = ref true in
      for src = 0 to n - 1 do
        for dst = 0 to n - 1 do
          if src <> dst then
            Array.iter
              (fun route ->
                ok :=
                  !ok
                  && D.route_is_simple f.graph route
                  && D.src f.graph route.(0) = f.hosts.(src)
                  && D.dst f.graph route.(Array.length route - 1)
                     = f.hosts.(dst))
              (f.routes ~src ~dst)
        done
      done;
      !ok)

let prop_fat_tree_ecmp_degree =
  QCheck.Test.make ~name:"fat_tree ECMP path counts" ~count:20
    (QCheck.pair
       (QCheck.map (fun i -> 2 * i) (QCheck.int_range 1 3))
       (QCheck.int_range 0 1_000_000))
    (fun (k, salt) ->
      let half = k / 2 in
      let f = B.fat_tree ~k in
      let n = Array.length f.hosts in
      let src = salt mod n in
      let dst = (salt / n) mod n in
      src = dst
      ||
      let expected =
        if src / half = dst / half then 1
        else if src / (half * half) = dst / (half * half) then half
        else half * half
      in
      f.ecmp_degree ~src ~dst = expected)

let prop_random_dag =
  QCheck.Test.make ~name:"random_dag is a DAG" ~count:50
    (QCheck.pair (QCheck.int_range 1 25) (QCheck.int_range 0 100))
    (fun (n, seed) ->
      let prng = Prng.create seed in
      let g = B.random_dag ~prng ~nodes:n ~edge_prob_num:1 ~edge_prob_den:3 in
      D.is_dag g)

let prop_shortest_path_minimal =
  QCheck.Test.make ~name:"BFS path length <= ring distance" ~count:100
    (QCheck.pair (QCheck.int_range 2 12) (QCheck.int_range 0 11))
    (fun (k, j) ->
      let j = j mod k in
      let r = B.ring k in
      match D.shortest_path r.graph ~src:0 ~dst:j with
      | Some route -> Array.length route = j
      | None -> false)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "aqt_graph"
    [
      ( "digraph",
        [
          Alcotest.test_case "basics" `Quick digraph_basics;
          Alcotest.test_case "labels" `Quick digraph_labels;
          Alcotest.test_case "rejections" `Quick digraph_rejects;
          Alcotest.test_case "parallel edges" `Quick parallel_edges_allowed;
          Alcotest.test_case "route validation" `Quick route_validation;
          Alcotest.test_case "dag/topo" `Quick dag_and_topo;
          Alcotest.test_case "reachability" `Quick reachability;
          Alcotest.test_case "shortest paths" `Quick shortest_paths;
        ] );
      ( "builders",
        [
          Alcotest.test_case "line" `Quick build_line;
          Alcotest.test_case "ring" `Quick build_ring;
          Alcotest.test_case "parallel paths" `Quick build_parallel;
          Alcotest.test_case "grid" `Quick build_grid;
          Alcotest.test_case "in-tree" `Quick build_in_tree;
          Alcotest.test_case "rejections" `Quick builder_rejects;
          Alcotest.test_case "named networks parse" `Quick net_spec_parse;
          Alcotest.test_case "named networks build" `Quick net_spec_build;
          q prop_random_dag;
          q prop_shortest_path_minimal;
        ] );
      ( "fabrics",
        [
          Alcotest.test_case "spine-leaf" `Quick build_spine_leaf;
          Alcotest.test_case "fat-tree" `Quick build_fat_tree;
          q prop_spine_leaf_counts;
          q prop_fabric_routes_simple;
          q prop_fat_tree_ecmp_degree;
        ] );
    ]
