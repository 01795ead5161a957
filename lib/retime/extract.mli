(** Retiming lower bound extracted from a mapped sequential netlist.

    Builds the register-weighted instance graph (combinational instances as
    nodes, flop chains collapsed onto edges, a clocked host standing for the
    environment: inputs arrive at the cycle edge, outputs are registered by
    the environment) and binary-searches the smallest period [P] such that
    no cycle violates [sum delay <= P x sum registers] — the classic
    minimum-cycle-ratio bound that no retiming can beat.

    For a feed-forward pipeline the bound is roughly total delay over
    (register ranks + 1): retiming can rebalance to it. For a tight state
    machine the feedback loop pins the bound at its current speed — the
    quantitative form of Sec. 4.1's "bus interfaces ... it is not clear how
    an ASIC may be reorganized to allow pipelining". *)

type t = {
  graph : Gap_util.Digraph.t;  (** node 0 is the host *)
  delays : float array;  (** per node; edge weights carry register counts *)
  node_of_inst : int array;  (** comb instance id -> node id (-1 for flops) *)
}

val of_netlist : Gap_netlist.Netlist.t -> t

val feasible : t -> period_ps:float -> bool
(** No cycle with more delay than [period x registers]. *)

val retiming_bound_ps : Gap_netlist.Netlist.t -> float
(** The smallest feasible period, within 0.5 ps: what an ideal retiming
    could reach. *)

val sta_period_ps : Gap_netlist.Netlist.t -> float
(** Current STA min period, for comparison. *)

val retiming_headroom : Gap_netlist.Netlist.t -> float
(** [sta / bound]: > 1 when register rebalancing could speed the design up;
    ~1 when the loops (or the stage balance) already pin it. *)
