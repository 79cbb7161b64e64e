(* Watch the Lemma 3.6 pump move a queue from one gadget to the next.

     dune exec examples/spacetime_view.exe

   Renders a space-time heat map (rows = edges, columns = time) of a small
   gadget chain while the startup and pump adversaries run: the seed queue at
   a0 turns into the C(S, F(1)) invariant (standing queues on gadget 1's
   e-path), which the pump then transfers to gadget 2's e-path, larger. *)

module Ratio = Aqt_util.Ratio
module G = Aqt.Gadget

let () =
  let seeds = 122 in
  let params, g, st =
    Aqt.Instability.spacetime ~eps:(Ratio.make 1 5) ~seeds ()
  in
  Printf.printf
    "Startup (Lemma 3.15) then pump (Lemma 3.6) on %s, %d seeds, r = %s.\n\n"
    (G.describe g) seeds
    (Ratio.to_string params.rate);
  Aqt_engine.Spacetime.print st;
  Printf.printf
    "\nReading the map: a0's seed queue (top) feeds gadget 1's e-path (e1_*),\n\
     whose standing queues then migrate to gadget 2's e-path (e2_*) during\n\
     the pump, ending larger by the factor 2(1-R_n) = %.3f.\n"
    (Aqt.Params.pump_factor ~r:params.r ~n:params.n)
