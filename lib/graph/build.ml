module D = Digraph

type line = { graph : D.t; nodes : int array; edges : int array }

let line k =
  if k < 1 then invalid_arg "Build.line: need at least one edge";
  let g = D.create () in
  let nodes = D.add_nodes g (k + 1) in
  let edges =
    Array.init k (fun i -> D.add_edge g ~src:nodes.(i) ~dst:nodes.(i + 1))
  in
  { graph = g; nodes; edges }

type ring = { graph : D.t; nodes : int array; edges : int array }

let ring k =
  if k < 2 then invalid_arg "Build.ring: need at least two nodes";
  let g = D.create () in
  let nodes = D.add_nodes g k in
  let edges =
    Array.init k (fun i ->
        D.add_edge g ~src:nodes.(i) ~dst:nodes.((i + 1) mod k))
  in
  { graph = g; nodes; edges }

type parallel = {
  graph : D.t;
  source : int;
  sink : int;
  paths : int array array;
}

let parallel_paths ~branches ~hops =
  if branches < 1 || hops < 1 then invalid_arg "Build.parallel_paths";
  let g = D.create () in
  let source = D.add_node ~name:"src" g and sink = D.add_node ~name:"snk" g in
  let branch b =
    let prev = ref source in
    Array.init hops (fun h ->
        let next = if h = hops - 1 then sink else D.add_node g in
        let e =
          D.add_edge ~label:(Printf.sprintf "p%d_%d" b h) g ~src:!prev ~dst:next
        in
        prev := next;
        e)
  in
  let paths = Array.init branches branch in
  { graph = g; source; sink; paths }

type grid = {
  graph : D.t;
  rows : int;
  cols : int;
  node_at : int -> int -> int;
  right_of : int -> int -> int;
  down_of : int -> int -> int;
}

(* Million-edge grids must build in O(E) with no per-element allocation:
   nodes are anonymous (default names materialise on read, the PR 2 Digraph
   fix) and the handles are arithmetic, not arrays of ids.  Nodes are added
   in row-major order; edges in row-major cell order, right before down, so
   each handle is a closed-form index. *)
let grid ~rows ~cols =
  if rows < 1 || cols < 1 then
    invalid_arg
      (Printf.sprintf
         "Build.grid: rows and cols must be >= 1 (got rows=%d cols=%d)" rows
         cols);
  let g = D.create () in
  ignore (D.add_nodes g (rows * cols));
  let node_at r c = (r * cols) + c in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      if c + 1 < cols then
        ignore (D.add_edge g ~src:(node_at r c) ~dst:(node_at r (c + 1)));
      if r + 1 < rows then
        ignore (D.add_edge g ~src:(node_at r c) ~dst:(node_at (r + 1) c))
    done
  done;
  (* A non-last row holds [cols - 1] rights + [cols] downs = [2*cols - 1]
     edges; the last row only the rights.  Within a non-last row, cell [c]
     is preceded by [2c] of them. *)
  let right_of r c =
    if r < 0 || r >= rows || c < 0 || c + 1 >= cols then
      invalid_arg "Build.grid: no right edge there";
    if r < rows - 1 then (r * ((2 * cols) - 1)) + (2 * c)
    else (r * ((2 * cols) - 1)) + c
  in
  let down_of r c =
    if r < 0 || r + 1 >= rows || c < 0 || c >= cols then
      invalid_arg "Build.grid: no down edge there";
    (r * ((2 * cols) - 1)) + (2 * c) + if c + 1 < cols then 1 else 0
  in
  { graph = g; rows; cols; node_at; right_of; down_of }

type torus = {
  graph : D.t;
  rows : int;
  cols : int;
  node_at : int -> int -> int;
  right_of : int -> int -> int;
  down_of : int -> int -> int;
}

(* Directed torus: the grid with wraparound, so every node has exactly one
   right and one down edge — [2 * rows * cols] edges, uniform degree, the
   natural 2-D scaling of the ring workloads. *)
let torus ~rows ~cols =
  if rows < 2 || cols < 2 then
    invalid_arg
      (Printf.sprintf
         "Build.torus: rows and cols must be >= 2 (got rows=%d cols=%d)" rows
         cols);
  let g = D.create () in
  ignore (D.add_nodes g (rows * cols));
  let node_at r c = (r * cols) + c in
  for r = 0 to rows - 1 do
    for c = 0 to cols - 1 do
      ignore
        (D.add_edge g ~src:(node_at r c) ~dst:(node_at r ((c + 1) mod cols)));
      ignore
        (D.add_edge g ~src:(node_at r c) ~dst:(node_at ((r + 1) mod rows) c))
    done
  done;
  let check r c =
    if r < 0 || r >= rows || c < 0 || c >= cols then
      invalid_arg "Build.torus: cell out of range"
  in
  let right_of r c =
    check r c;
    2 * ((r * cols) + c)
  and down_of r c =
    check r c;
    (2 * ((r * cols) + c)) + 1
  in
  { graph = g; rows; cols; node_at; right_of; down_of }

type tree = { graph : D.t; root : int; leaves : int array }

let in_tree ~depth =
  if depth < 0 then invalid_arg "Build.in_tree";
  let g = D.create () in
  let root = D.add_node ~name:"root" g in
  (* Level d holds 2^d nodes; edges point from level d+1 to level d. *)
  let rec expand level parents =
    if level > depth then parents
    else begin
      let children =
        Array.concat
          (Array.to_list
             (Array.map
                (fun p ->
                  let l = D.add_node g and r = D.add_node g in
                  ignore (D.add_edge g ~src:l ~dst:p);
                  ignore (D.add_edge g ~src:r ~dst:p);
                  [| l; r |])
                parents))
      in
      expand (level + 1) children
    end
  in
  let leaves = expand 1 [| root |] in
  { graph = g; root; leaves }

let random_dag ~prng ~nodes ~edge_prob_num ~edge_prob_den =
  if nodes < 1 then invalid_arg "Build.random_dag";
  let g = D.create () in
  let ids = D.add_nodes g nodes in
  for i = 0 to nodes - 1 do
    for j = i + 1 to nodes - 1 do
      if Aqt_util.Prng.bernoulli prng ~num:edge_prob_num ~den:edge_prob_den
      then ignore (D.add_edge g ~src:ids.(i) ~dst:ids.(j))
    done
  done;
  g

(* ------------------------------------------------------------------ *)
(* Datacenter fabrics: spine-leaf and 3-tier k-ary fat-tree            *)
(* ------------------------------------------------------------------ *)

(* Deterministic per-flow ECMP selection: a boost-style hash combine over
   (seed, src, dst, flow) with a final avalanche, reduced mod the
   equal-cost route count.  Pure arithmetic on the native int — the same
   tuple picks the same route forever, like a switch hashing a 5-tuple.
   Constants fit in 62 bits so the result is identical on every 64-bit
   platform. *)
let ecmp_index ~seed ~src ~dst ~flow n =
  if n < 1 then invalid_arg "Build.ecmp_index: need at least one route";
  let mix h v = (h lxor (v + 0x9E37_79B9 + (h lsl 6) + (h lsr 2))) land max_int in
  let h = mix (mix (mix (mix 0x2545_F491 seed) src) dst) flow in
  let h = h lxor (h lsr 33) in
  let h = h * 0x2AAB_59E5_9EC4_D5C5 land max_int in
  let h = h lxor (h lsr 29) in
  h mod n

type fabric = {
  graph : D.t;
  hosts : int array;
  switches : int array;
  routes : src:int -> dst:int -> int array array;
  ecmp_degree : src:int -> dst:int -> int;
}

let ecmp_route (f : fabric) ~seed ~src ~dst ~flow =
  let candidates = f.routes ~src ~dst in
  candidates.(ecmp_index ~seed ~src ~dst ~flow (Array.length candidates))

(* Two-tier Clos: every leaf links up to every spine, [hosts_per_leaf]
   hosts hang off each leaf.  Links are modelled as directed edge pairs.
   Between hosts under different leaves there are exactly [spines]
   equal-cost 4-hop routes (one per spine); under the same leaf, one
   2-hop route through the shared leaf switch. *)
let spine_leaf ~spines ~leaves ~hosts_per_leaf =
  if spines < 1 then
    invalid_arg
      (Printf.sprintf "Build.spine_leaf: need at least one spine (got %d)"
         spines);
  if leaves < 1 then
    invalid_arg
      (Printf.sprintf "Build.spine_leaf: need at least one leaf (got %d)"
         leaves);
  if hosts_per_leaf < 1 then
    invalid_arg
      (Printf.sprintf
         "Build.spine_leaf: need at least one host per leaf (got %d)"
         hosts_per_leaf);
  let g = D.create () in
  let spine_ids = D.add_nodes g spines in
  let leaf_ids = D.add_nodes g leaves in
  let n_hosts = leaves * hosts_per_leaf in
  let host_ids = D.add_nodes g n_hosts in
  (* Fabric links, then access links; each recorded both ways. *)
  let up_ls = Array.make_matrix leaves spines 0 in
  let down_sl = Array.make_matrix spines leaves 0 in
  for l = 0 to leaves - 1 do
    for s = 0 to spines - 1 do
      up_ls.(l).(s) <- D.add_edge g ~src:leaf_ids.(l) ~dst:spine_ids.(s);
      down_sl.(s).(l) <- D.add_edge g ~src:spine_ids.(s) ~dst:leaf_ids.(l)
    done
  done;
  let up_host = Array.make n_hosts 0 in
  let down_host = Array.make n_hosts 0 in
  for h = 0 to n_hosts - 1 do
    let l = h / hosts_per_leaf in
    up_host.(h) <- D.add_edge g ~src:host_ids.(h) ~dst:leaf_ids.(l);
    down_host.(h) <- D.add_edge g ~src:leaf_ids.(l) ~dst:host_ids.(h)
  done;
  let check_host who h =
    if h < 0 || h >= n_hosts then
      invalid_arg
        (Printf.sprintf "Build.spine_leaf: %s host index %d out of range" who
           h)
  in
  let routes ~src ~dst =
    check_host "src" src;
    check_host "dst" dst;
    if src = dst then
      invalid_arg "Build.spine_leaf: src and dst hosts must differ";
    let ls = src / hosts_per_leaf and ld = dst / hosts_per_leaf in
    if ls = ld then [| [| up_host.(src); down_host.(dst) |] |]
    else
      Array.init spines (fun s ->
          [| up_host.(src); up_ls.(ls).(s); down_sl.(s).(ld); down_host.(dst) |])
  in
  let ecmp_degree ~src ~dst =
    check_host "src" src;
    check_host "dst" dst;
    if src / hosts_per_leaf = dst / hosts_per_leaf then 1 else spines
  in
  {
    graph = g;
    hosts = host_ids;
    switches = Array.append spine_ids leaf_ids;
    routes;
    ecmp_degree;
  }

(* The canonical 3-tier k-ary fat-tree (Al-Fares et al.): k pods of k/2
   edge and k/2 aggregation switches, (k/2)^2 core switches, k/2 hosts
   per edge switch — k^3/4 hosts total.  Aggregation switch [a] of every
   pod links to core group [a] (cores [a*(k/2) .. a*(k/2)+k/2-1]), which
   is what makes all (k/2)^2 inter-pod routes equal cost. *)
let fat_tree ~k =
  if k < 2 || k mod 2 <> 0 then
    invalid_arg
      (Printf.sprintf "Build.fat_tree: k must be even and >= 2 (got %d)" k);
  let half = k / 2 in
  let g = D.create () in
  let cores = D.add_nodes g (half * half) in
  let edge_sw = Array.init k (fun _ -> D.add_nodes g half) in
  let agg_sw = Array.init k (fun _ -> D.add_nodes g half) in
  let hosts_per_pod = half * half in
  let n_hosts = k * hosts_per_pod in
  let host_ids = D.add_nodes g n_hosts in
  (* Host h lives in pod [h / (k/2)^2] under edge switch
     [(h mod (k/2)^2) / (k/2)]. *)
  let up_ea = Array.init k (fun _ -> Array.make_matrix half half 0) in
  let down_ae = Array.init k (fun _ -> Array.make_matrix half half 0) in
  let up_ac = Array.init k (fun _ -> Array.make_matrix half half 0) in
  let down_ca = Array.init k (fun _ -> Array.make_matrix half half 0) in
  for p = 0 to k - 1 do
    for e = 0 to half - 1 do
      for a = 0 to half - 1 do
        up_ea.(p).(e).(a) <-
          D.add_edge g ~src:edge_sw.(p).(e) ~dst:agg_sw.(p).(a);
        down_ae.(p).(a).(e) <-
          D.add_edge g ~src:agg_sw.(p).(a) ~dst:edge_sw.(p).(e)
      done
    done;
    for a = 0 to half - 1 do
      for b = 0 to half - 1 do
        let c = (a * half) + b in
        up_ac.(p).(a).(b) <- D.add_edge g ~src:agg_sw.(p).(a) ~dst:cores.(c);
        down_ca.(p).(a).(b) <- D.add_edge g ~src:cores.(c) ~dst:agg_sw.(p).(a)
      done
    done
  done;
  let up_host = Array.make n_hosts 0 in
  let down_host = Array.make n_hosts 0 in
  for h = 0 to n_hosts - 1 do
    let p = h / hosts_per_pod in
    let e = h mod hosts_per_pod / half in
    up_host.(h) <- D.add_edge g ~src:host_ids.(h) ~dst:edge_sw.(p).(e);
    down_host.(h) <- D.add_edge g ~src:edge_sw.(p).(e) ~dst:host_ids.(h)
  done;
  let check_host who h =
    if h < 0 || h >= n_hosts then
      invalid_arg
        (Printf.sprintf "Build.fat_tree: %s host index %d out of range" who h)
  in
  let locate h = (h / hosts_per_pod, h mod hosts_per_pod / half) in
  let routes ~src ~dst =
    check_host "src" src;
    check_host "dst" dst;
    if src = dst then
      invalid_arg "Build.fat_tree: src and dst hosts must differ";
    let ps, es = locate src and pd, ed = locate dst in
    if ps = pd && es = ed then [| [| up_host.(src); down_host.(dst) |] |]
    else if ps = pd then
      Array.init half (fun a ->
          [|
            up_host.(src);
            up_ea.(ps).(es).(a);
            down_ae.(ps).(a).(ed);
            down_host.(dst);
          |])
    else
      Array.init (half * half) (fun i ->
          let a = i / half and b = i mod half in
          [|
            up_host.(src);
            up_ea.(ps).(es).(a);
            up_ac.(ps).(a).(b);
            down_ca.(pd).(a).(b);
            down_ae.(pd).(a).(ed);
            down_host.(dst);
          |])
  in
  let ecmp_degree ~src ~dst =
    check_host "src" src;
    check_host "dst" dst;
    let ps, es = locate src and pd, ed = locate dst in
    if ps = pd && es = ed then 1 else if ps = pd then half else half * half
  in
  let switches =
    Array.concat
      (cores :: (Array.to_list edge_sw @ Array.to_list agg_sw))
  in
  { graph = g; hosts = host_ids; switches; routes; ecmp_degree }
