(* Theorems 4.1 and 4.3 as a runtime certificate: drive a network with the
   harshest (w, r) adversary we have and verify no packet ever dwells in a
   buffer longer than floor(w * r).

     dune exec examples/stability_certificate.exe

   Two regimes are shown on a line of d edges:
   - time-priority protocols (FIFO, LIS) at r = 1/d       (Theorem 4.3)
   - arbitrary greedy protocols at r = 1/(d+1)            (Theorem 4.1)
   The packed window-burst adversary achieves the bound with equality for
   FIFO, showing the analysis is tight. *)

module Ratio = Aqt_util.Ratio
module Network = Aqt_engine.Network
module Policies = Aqt_policy.Policies
module Tbl = Aqt_util.Tbl

let d = 5
let w = 60
let horizon = 12_000

let certify tbl policy rate =
  let net =
    Aqt.Stability.line_burst ~log_injections:true ~policy ~d ~w ~rate ~horizon
      ~steps:(horizon + 100) ()
  in
  let legal =
    Aqt_adversary.Rate_check.check_windowed ~m:d ~w ~rate
      (Network.injection_log net)
    = Ok ()
  in
  match Aqt.Stability.verify_run ~w ~rate ~d net with
  | Some v ->
      Tbl.add_row tbl
        [
          policy.Aqt_engine.Policy_type.name;
          Ratio.to_string rate;
          Tbl.fb legal;
          Tbl.fi v.bound;
          Tbl.fi v.max_dwell_seen;
          Tbl.fi (Network.max_queue_ever net);
          (if v.ok then "certified" else "VIOLATION");
        ]
  | None ->
      Tbl.add_row tbl
        [
          policy.Aqt_engine.Policy_type.name;
          Ratio.to_string rate;
          Tbl.fb legal;
          "-";
          Tbl.fi (Network.max_dwell net);
          Tbl.fi (Network.max_queue_ever net);
          "no theorem";
        ]

let () =
  Printf.printf
    "Stability certificates on a %d-edge line, w=%d, packed bursts.\n\n" d w;
  let tbl =
    Tbl.create
      ~headers:
        [ "policy"; "rate"; "(w,r) legal"; "bound"; "max dwell"; "max queue"; "verdict" ]
  in
  (* Theorem 4.3: time-priority protocols at r = 1/d. *)
  certify tbl Policies.fifo (Ratio.make 1 d);
  certify tbl Policies.lis (Ratio.make 1 d);
  (* Theorem 4.1: every greedy protocol at r = 1/(d+1). *)
  List.iter
    (fun p -> certify tbl p (Ratio.make 1 (d + 1)))
    [
      Policies.fifo;
      Policies.lifo;
      Policies.ntg;
      Policies.ftg;
      Policies.ffs;
      Policies.nis;
      Policies.random ~seed:7;
    ];
  (* Above the threshold the theorems are silent (and FIFO can even be made
     unstable: see fifo_instability.exe). *)
  certify tbl Policies.fifo (Ratio.make 1 2);
  Tbl.print tbl;
  print_endline
    "Note: the bound floor(w*r) is met with equality by the packed burst -\n\
     the theorems' analysis is tight on this workload."
