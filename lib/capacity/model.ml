type policy = Drop_tail | Drop_head

type buffers =
  | Unbounded
  | Uniform of { cap : int; policy : policy }
  | Per_edge of { caps : int array; policy : policy }
  | Shared of { total : int; alpha_num : int; alpha_den : int }

type t = { buffers : buffers; speedup : int }

let unbounded = { buffers = Unbounded; speedup = 1 }

let make ?(speedup = 1) buffers =
  if speedup < 1 then invalid_arg "Capacity.Model.make: speedup must be >= 1";
  (match buffers with
  | Unbounded -> ()
  | Uniform { cap; _ } ->
      if cap < 0 then invalid_arg "Capacity.Model.make: negative capacity"
  | Per_edge { caps; _ } ->
      Array.iter
        (fun c ->
          if c < 0 then invalid_arg "Capacity.Model.make: negative capacity")
        caps
  | Shared { total; alpha_num; alpha_den } ->
      if total < 0 then invalid_arg "Capacity.Model.make: negative total";
      if alpha_num < 1 || alpha_den < 1 then
        invalid_arg "Capacity.Model.make: alpha must be a positive ratio");
  { buffers; speedup }

let uniform ?(policy = Drop_tail) ?speedup cap =
  make ?speedup (Uniform { cap; policy })

let shared ?(alpha_num = 1) ?(alpha_den = 1) ?speedup total =
  make ?speedup (Shared { total; alpha_num; alpha_den })

let is_unbounded t = match t.buffers with Unbounded -> true | _ -> false
let is_trivial t = is_unbounded t && t.speedup = 1
let speedup t = t.speedup

let check_edges t ~m =
  match t.buffers with
  | Per_edge { caps; _ } when Array.length caps <> m ->
      Error
        (Printf.sprintf "per-edge capacity lists %d caps for %d edges"
           (Array.length caps) m)
  | _ -> Ok ()

let caps t ~m =
  match t.buffers with
  | Unbounded | Shared _ -> Array.make m max_int
  | Uniform { cap; _ } -> Array.make m cap
  | Per_edge { caps; _ } -> (
      match check_edges t ~m with
      | Ok () -> Array.copy caps
      | Error e -> invalid_arg ("Capacity.Model.caps: " ^ e))

let drop_head t =
  match t.buffers with
  | Uniform { policy = Drop_head; _ } | Per_edge { policy = Drop_head; _ } ->
      true
  | _ -> false

let shared_total t =
  match t.buffers with Shared { total; _ } -> total | _ -> max_int

let alpha t =
  match t.buffers with
  | Shared { alpha_num; alpha_den; _ } -> (alpha_num, alpha_den)
  | _ -> (1, 1)

(* The Dynamic-Threshold admission test (Choudhury-Hahne): a packet may join
   a queue of length [len] iff the queue stays below alpha times the free
   space of the shared buffer.  [occupancy = total] makes the right side 0,
   so fullness rejection is subsumed. *)
let dt_admits ~alpha_num ~alpha_den ~total ~occupancy ~len =
  alpha_den * len < alpha_num * (total - occupancy)

let to_string t =
  let drop = function Drop_tail -> "" | Drop_head -> ":drop-head" in
  let b =
    match t.buffers with
    | Unbounded -> "unbounded"
    | Uniform { cap; policy } -> Printf.sprintf "uniform:%d%s" cap (drop policy)
    | Per_edge { caps; policy } ->
        Printf.sprintf "per-edge:%s%s"
          (String.concat "," (Array.to_list (Array.map string_of_int caps)))
          (drop policy)
    | Shared { total; alpha_num = 1; alpha_den = 1 } ->
        Printf.sprintf "shared:%d" total
    | Shared { total; alpha_num; alpha_den } ->
        Printf.sprintf "shared:%d:%d/%d" total alpha_num alpha_den
  in
  if t.speedup = 1 then b else Printf.sprintf "%s@%d" b t.speedup

exception Syntax

let parse s =
  let int v =
    match int_of_string_opt v with Some n -> n | None -> raise Syntax
  in
  let policy = function
    | "drop-tail" -> Drop_tail
    | "drop-head" -> Drop_head
    | _ -> raise Syntax
  in
  let caps = function
    | "" -> [||]
    | v -> Array.of_list (List.map int (String.split_on_char ',' v))
  in
  let body, speedup =
    match String.split_on_char '@' (String.trim s) with
    | [ b ] -> (b, "1")
    | [ b; sp ] -> (b, sp)
    | _ -> raise Syntax
  in
  let buffers =
    match String.split_on_char ':' body with
    | [ "unbounded" ] -> Unbounded
    | [ "uniform"; k ] -> Uniform { cap = int k; policy = Drop_tail }
    | [ "uniform"; k; p ] -> Uniform { cap = int k; policy = policy p }
    | [ "per-edge"; ks ] -> Per_edge { caps = caps ks; policy = Drop_tail }
    | [ "per-edge"; ks; p ] -> Per_edge { caps = caps ks; policy = policy p }
    | [ "shared"; total ] ->
        Shared { total = int total; alpha_num = 1; alpha_den = 1 }
    | [ "shared"; total; alpha ] -> (
        match String.split_on_char '/' alpha with
        | [ a; b ] ->
            Shared { total = int total; alpha_num = int a; alpha_den = int b }
        | _ -> raise Syntax)
    | _ -> raise Syntax
  in
  make ~speedup:(int speedup) buffers

let of_string s =
  match parse s with
  | t -> Ok t
  | exception Invalid_argument msg -> Error msg
  | exception Syntax ->
      Error
        (Printf.sprintf
           "unknown capacity %S (unbounded | uniform:K[:drop-head] | \
            per-edge:K1,...,Km[:drop-head] | shared:T[:A/B], then @S for \
            speedup S)"
           s)
