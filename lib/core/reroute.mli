(** The rerouting technique of Lemma 3.3.

    A deterministic {e historic} policy (Def 3.1) schedules independently of
    route suffixes, so an adversary may rewrite the routes of a set of packets
    beyond their next edges — provided the packets' current routes share at
    least one common edge and the edges added are {e new} (Def 3.2: unused by
    any injection since [t* - ceil(1/r)], where [t*] is the earliest injection
    time among packets currently in the network).  The rewritten execution is
    that of an ordinary rate-r adversary (the lemma), which experiment E5
    verifies by feeding final effective routes to the exact rate checker.

    [extend_all] implements the form every Section 3 adversary uses: append a
    common suffix of new edges after each packet's current final edge.  The
    preconditions are checked, not assumed. *)

type error =
  | Policy_not_historic of string
  | No_shared_edge
  | Stale_edge of { edge : int; last_used : int; threshold : int }
      (** A suffix edge was used by an injection at or after the Def 3.2
          threshold [t* - ceil(1/r)]. *)
  | Packet_absorbed of int
  | Invalid_path of string

val pp_error : Format.formatter -> error -> unit

val check_new_edges :
  rate:Aqt_util.Ratio.t ->
  Aqt_engine.Network.t ->
  int array ->
  (unit, error) result
(** Checks Def 3.2 for every edge in the array against the current network
    state. *)

val extend_all :
  rate:Aqt_util.Ratio.t ->
  Aqt_engine.Network.t ->
  packets:Aqt_engine.Packet.t list ->
  suffix:int array ->
  (unit, error) result
(** Appends [suffix] to the route of every packet in the list, after checking
    the Lemma 3.3 preconditions.  On [Error] no packet is modified.  An empty
    suffix or empty packet list is a no-op.

    The work is per class, not per packet: packets with the same route array
    and hop (one Def 3.5 class) are checked once and get one shared rewritten
    route.  Packets are still rerouted in list order. *)
