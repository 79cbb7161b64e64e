module Ratio = Aqt_util.Ratio
module Dyn = Aqt_util.Dynarray_compat

type violation = { edge : int; t1 : int; t2 : int; count : int; allowed : int }

let pp_violation fmt v =
  Format.fprintf fmt
    "edge %d: %d packets injected in [%d,%d] but only %d allowed" v.edge
    v.count v.t1 v.t2 v.allowed

(* Calls [f t e] for every edge [e] of every route, in log order, after
   checking that the log is sorted, starts at step 1 and names only edges
   below [m]. *)
let iter_log ~m f log =
  let prev_time = ref min_int in
  (* Loops, not [Array.iter]: a closure over [t] would cost an allocation
     per log entry. *)
  for i = 0 to Array.length log - 1 do
    let t, route = log.(i) in
    if t < !prev_time then
      invalid_arg "Rate_check: log not sorted by injection time";
    if t < 1 then invalid_arg "Rate_check: injection before step 1";
    prev_time := t;
    for j = 0 to Array.length route - 1 do
      let e = route.(j) in
      if e < 0 || e >= m then invalid_arg "Rate_check: edge out of range";
      f t e
    done
  done

(* Per-edge event lists: (time, multiplicity), times strictly increasing.
   Routes are simple, so one packet contributes at most once per edge. *)
let bucketize ~m log =
  let buckets = Array.init m (fun _ -> Dyn.create ()) in
  iter_log ~m
    (fun t e ->
      let b = buckets.(e) in
      if (not (Dyn.is_empty b)) && fst (Dyn.last b) = t then
        Dyn.set b (Dyn.length b - 1) (t, snd (Dyn.last b) + 1)
      else Dyn.push b (t, 1))
    log;
  buckets

(* The potential D_t = q*S_t - p*t of every edge, in flat int arrays indexed
   by edge.  After the packets of a log are added in time order, [worst.(e)]
   is the maximum over t2 of D_t2 - min_(u < t2) D_u (min_int on an idle
   edge), and [t1]/[t2]/[count] hold the first interval attaining it.  That
   excess is q*count - p*len over the interval, so each condition is one
   threshold on it. *)
type scan = {
  p : int;
  q : int;
  s : int array;  (* S_t, packets on the edge so far *)
  min_d : int array;  (* min of D_u over the u seen, its u, S_u *)
  min_t : int array;
  min_s : int array;
  worst : int array;
  t1 : int array;
  t2 : int array;
  count : int array;
}

let create_scan ~m rate =
  let zeros () = Array.make m 0 in
  {
    p = Ratio.num rate;
    q = Ratio.den rate;
    s = zeros ();
    min_d = zeros ();
    min_t = zeros ();
    min_s = zeros ();
    worst = Array.make m min_int;
    t1 = zeros ();
    t2 = zeros ();
    count = zeros ();
  }

(* Adds [c] packets on edge [e] at step [t], no earlier than the edge's last
   step.  D only falls between injections, so min_(u < t) D_u is the old
   minimum or D_(t-1).  A later packet of the same step offers a D_(t-1)
   strictly above the first one's, so it never moves the minimum: one packet
   at a time gives the same state as the step's packets at once. *)
let add sc e t c =
  let s = sc.s.(e) in
  let d = (sc.q * s) - (sc.p * (t - 1)) in
  if d < sc.min_d.(e) then begin
    sc.min_d.(e) <- d;
    sc.min_t.(e) <- t - 1;
    sc.min_s.(e) <- s
  end;
  let s = s + c in
  sc.s.(e) <- s;
  let excess = (sc.q * s) - (sc.p * t) - sc.min_d.(e) in
  if excess > sc.worst.(e) then begin
    sc.worst.(e) <- excess;
    sc.t1.(e) <- sc.min_t.(e) + 1;
    sc.t2.(e) <- t;
    sc.count.(e) <- s - sc.min_s.(e)
  end

let scan_log ~m ~rate log =
  let sc = create_scan ~m rate in
  iter_log ~m (fun t e -> add sc e t 1) log;
  sc

(* The witness of the smallest edge whose excess is above [threshold e]. *)
let certify sc ~threshold ~allowed =
  let m = Array.length sc.s in
  let rec from e =
    if e = m then Ok ()
    else if sc.worst.(e) > threshold e then
      let t1 = sc.t1.(e) and t2 = sc.t2.(e) in
      Error
        {
          edge = e;
          t1;
          t2;
          count = sc.count.(e);
          allowed = allowed e (t2 - t1 + 1);
        }
    else from (e + 1)
  in
  from 0

(* Every interval [t1,t2] of events on every edge, against [allowed e len]:
   the first violation in (edge, t1, t2) order. *)
let brute ~m ~allowed log =
  let buckets = bucketize ~m log in
  let result = ref (Ok ()) in
  (try
     for e = 0 to m - 1 do
       let events = Dyn.to_array buckets.(e) in
       let n = Array.length events in
       for i = 0 to n - 1 do
         let count = ref 0 in
         for j = i to n - 1 do
           let t1 = fst events.(i) and t2 = fst events.(j) in
           count := !count + snd events.(j);
           let allowed = allowed e (t2 - t1 + 1) in
           if !count > allowed && !result = Ok () then
             result := Error { edge = e; t1; t2; count = !count; allowed }
         done
       done;
       if !result <> Ok () then raise Exit
     done
   with Exit -> ());
  !result

(* The rate-r bound is ceil(r*len); as an excess, q*count - p*len <= q - 1. *)
let rate_allowed rate _ len = Ratio.ceil_mul rate len

(* count <= r*len + sigma_e  <=>  q*count - p*len <= q*sigma_e. *)
let local_allowed rate sigmas e len = Ratio.floor_mul rate len + sigmas.(e)

let check_rate ~m ~rate log =
  let sc = scan_log ~m ~rate log in
  certify sc ~threshold:(fun _ -> sc.q - 1) ~allowed:(rate_allowed rate)

let check_rate_brute ~m ~rate log = brute ~m ~allowed:(rate_allowed rate) log

let check_windowed ~m ~w ~rate log =
  if w < 1 then invalid_arg "Rate_check.check_windowed: w must be positive";
  let allowed = Ratio.floor_mul rate w in
  let buckets = bucketize ~m log in
  let result = ref (Ok ()) in
  (try
     for e = 0 to m - 1 do
       let events = Dyn.to_array buckets.(e) in
       let n = Array.length events in
       let i = ref 0 and sum = ref 0 in
       for j = 0 to n - 1 do
         sum := !sum + snd events.(j);
         let t2 = fst events.(j) in
         while fst events.(!i) <= t2 - w do
           sum := !sum - snd events.(!i);
           incr i
         done;
         if !sum > allowed && !result = Ok () then
           result :=
             Error { edge = e; t1 = t2 - w + 1; t2; count = !sum; allowed }
       done;
       if !result <> Ok () then raise Exit
     done
   with Exit -> ());
  !result

(* Locally bursty admissibility (Rosenbaum, arXiv:2208.09522): one global
   rate rho but a per-edge burst budget sigma_e.  The leaky bucket is the
   case of one sigma for every edge. *)
let check_local ~rate ~sigmas log =
  Array.iteri
    (fun e s ->
      if s < 0 then
        invalid_arg
          (Printf.sprintf "Rate_check.check_local: negative sigma on edge %d" e))
    sigmas;
  let sc = scan_log ~m:(Array.length sigmas) ~rate log in
  certify sc
    ~threshold:(fun e -> sc.q * sigmas.(e))
    ~allowed:(local_allowed rate sigmas)

let check_local_brute ~rate ~sigmas log =
  brute ~m:(Array.length sigmas) ~allowed:(local_allowed rate sigmas) log

let check_leaky ~m ~b ~rate log =
  if b < 0 then invalid_arg "Rate_check.check_leaky: negative burst";
  check_local ~rate ~sigmas:(Array.make m b) log

let scan_edge ~rate events =
  let sc = create_scan ~m:1 rate in
  let prev = ref min_int in
  Array.iter
    (fun (t, c) ->
      if t <= !prev then
        invalid_arg "Rate_check.scan_edge: times must be strictly increasing";
      if t < 1 then invalid_arg "Rate_check.scan_edge: event before step 1";
      if c < 1 then
        invalid_arg "Rate_check.scan_edge: multiplicity must be positive";
      prev := t;
      add sc 0 t c)
    events;
  if sc.s.(0) = 0 then (min_int, None)
  else (sc.worst.(0), Some (sc.t1.(0), sc.t2.(0), sc.count.(0)))

let burstiness ~m ~rate log =
  let sc = scan_log ~m ~rate log in
  let q = sc.q in
  (* Slack b needed on an edge: count <= ceil(r*len) + b translates to
     excess - q*b <= q - 1. *)
  Array.fold_left
    (fun worst excess ->
      if excess > q - 1 then max worst ((excess - (q - 1) + q - 1) / q)
      else worst)
    0 sc.worst
