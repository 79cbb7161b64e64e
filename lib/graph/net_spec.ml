type t = Line of int | Ring of int

let parse ~max_size s =
  let size k lo =
    match int_of_string_opt k with
    | Some k when k >= lo && k <= max_size -> Ok k
    | Some _ when max_size = max_int ->
        Error (Printf.sprintf "network %S: size must be at least %d" s lo)
    | Some _ ->
        Error
          (Printf.sprintf "network %S: size out of range [%d, %d]" s lo
             max_size)
    | None -> Error (Printf.sprintf "network %S: bad size" s)
  in
  match String.split_on_char ':' (String.trim s) with
  | [ "line"; k ] -> Result.map (fun k -> Line k) (size k 1)
  | [ "ring"; k ] -> Result.map (fun k -> Ring k) (size k 3)
  | _ -> Error (Printf.sprintf "unknown network %S (line:K | ring:K)" s)

let to_string = function
  | Line k -> Printf.sprintf "line:%d" k
  | Ring k -> Printf.sprintf "ring:%d" k

let build ~d = function
  | Line k ->
      let l = Build.line k in
      let d = min d k in
      (l.graph, List.init (k - d + 1) (fun i -> Array.sub l.edges i d))
  | Ring k ->
      let r = Build.ring k in
      let d = min d (k - 1) in
      ( r.graph,
        List.init k (fun i -> Array.init d (fun j -> r.edges.((i + j) mod k)))
      )
