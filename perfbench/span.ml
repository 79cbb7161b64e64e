(* Spans recorded by the benchmark around its calls into the repository's
   layers.  A span has a name, a parent (the span open when it began), a
   start and an end on the monotonic clock, and the minor words this domain
   allocated in between.  The spans live in C memory (perfbench_span.c),
   so recording one neither allocates nor grows the OCaml heap; they are
   written out once, when the run ends.

   Nothing is recorded until [enable] is called: the untraced run executes
   the same code with every [enter] returning -1. *)

external now : unit -> (float[@unboxed])
  = "perfbench_now" "perfbench_now_native"
[@@noalloc]

external reserve : int -> unit = "perfbench_reserve"

(* Not [@@noalloc]: a noalloc call leaves the runtime's copy of the minor
   heap pointer stale, so the word counts read in C would lag. *)
external enter_c : (int[@untagged]) -> (int[@untagged])
  = "perfbench_enter" "perfbench_enter_native"

external exit_c : (int[@untagged]) -> unit
  = "perfbench_exit" "perfbench_exit_native"

external n_spans : unit -> (int[@untagged])
  = "perfbench_count" "perfbench_count_native"
[@@noalloc]

external name_of : (int[@untagged]) -> (int[@untagged])
  = "perfbench_name" "perfbench_name_native"
[@@noalloc]

external parent_of : (int[@untagged]) -> (int[@untagged])
  = "perfbench_parent" "perfbench_parent_native"
[@@noalloc]

external start_of : (int[@untagged]) -> (float[@unboxed])
  = "perfbench_start" "perfbench_start_native"
[@@noalloc]

external dur : (int[@untagged]) -> (float[@unboxed])
  = "perfbench_dur" "perfbench_dur_native"
[@@noalloc]

external words : (int[@untagged]) -> (float[@unboxed])
  = "perfbench_words" "perfbench_words_native"
[@@noalloc]

let enabled = ref false
let names : string array ref = ref [||]

let register s =
  match Array.find_index (String.equal s) !names with
  | Some i -> i
  | None ->
      names := Array.append !names [| s |];
      Array.length !names - 1

(* [capacity] bounds the spans of the run; [enter] stops recording
   (returns -1) beyond it. *)
let enable ~capacity =
  enabled := true;
  reserve capacity

let enter id = if !enabled then enter_c id else -1
let exit i = if i >= 0 then exit_c i

(* Requests overlap one another, so their spans are kept off the stack:
   name, request id, start, end. *)
let async = ref (Float.Array.make 0 0.)
let n_async = ref 0

let record_async id ~req ~start ~stop =
  if !enabled then begin
    let o = 4 * !n_async in
    if o + 4 > Float.Array.length !async then begin
      let a = Float.Array.make (max 1024 (2 * o)) 0. in
      Float.Array.blit !async 0 a 0 o;
      async := a
    end;
    let a = !async in
    Float.Array.set a o (float_of_int id);
    Float.Array.set a (o + 1) (float_of_int req);
    Float.Array.set a (o + 2) start;
    Float.Array.set a (o + 3) stop;
    incr n_async
  end

type total = {
  mutable count : int;
  mutable time : float;  (** Wall time inside spans of this name. *)
  mutable self : float;  (** Minus the time covered by child spans. *)
  mutable self_words : float;  (** Likewise for minor words. *)
}

let zero () = { count = 0; time = 0.; self = 0.; self_words = 0. }

(* Per-name totals, looked up by name.  Spans of one name never nest
   inside each other, so [time] is the wall time the layer was busy. *)
let totals () =
  let n = n_spans () in
  let t = Array.map (fun _ -> zero ()) !names in
  let child_time = Float.Array.make n 0. in
  let child_words = Float.Array.make n 0. in
  for i = 0 to n - 1 do
    let p = parent_of i in
    if p >= 0 then begin
      Float.Array.set child_time p (Float.Array.get child_time p +. dur i);
      Float.Array.set child_words p (Float.Array.get child_words p +. words i)
    end
  done;
  for i = 0 to n - 1 do
    let r = t.(name_of i) in
    r.count <- r.count + 1;
    r.time <- r.time +. dur i;
    r.self <- r.self +. dur i -. Float.Array.get child_time i;
    r.self_words <- r.self_words +. words i -. Float.Array.get child_words i
  done;
  fun s ->
    match Array.find_index (String.equal s) !names with
    | Some id -> t.(id)
    | None -> zero ()

(* Time covered by spans with no parent that began at [from] or later:
   the attributed part of a job that started at [from]. *)
let top_level_time ~from =
  let s = ref 0. in
  for i = 0 to n_spans () - 1 do
    if parent_of i < 0 && start_of i >= from then s := !s +. dur i
  done;
  !s

let durations s =
  match Array.find_index (String.equal s) !names with
  | None -> [||]
  | Some id ->
      let acc = ref [] in
      for i = n_spans () - 1 downto 0 do
        if name_of i = id then acc := dur i :: !acc
      done;
      Array.of_list !acc

let count () = n_spans () + !n_async

(* One line per span, times in microseconds from the first span: index,
   parent, name, start, duration, minor words.  Request spans follow,
   indexed r0, r1, ... with their request id in the parent column. *)
let write path =
  let oc = open_out path in
  let origin = if n_spans () > 0 then start_of 0 else 0. in
  let us x = Printf.sprintf "%.3f" (1e6 *. x) in
  output_string oc "span\tparent\tname\tstart_us\tdur_us\tminor_words\n";
  for i = 0 to n_spans () - 1 do
    Printf.fprintf oc "%d\t%d\t%s\t%s\t%s\t%.0f\n" i (parent_of i)
      !names.(name_of i)
      (us (start_of i -. origin))
      (us (dur i)) (words i)
  done;
  let a = !async in
  for i = 0 to !n_async - 1 do
    let f k = Float.Array.get a ((4 * i) + k) in
    Printf.fprintf oc "r%d\treq%.0f\t%s\t%s\t%s\t\n" i (f 1)
      !names.(int_of_float (f 0))
      (us (f 2 -. origin))
      (us (f 3 -. f 2))
  done;
  close_out oc
