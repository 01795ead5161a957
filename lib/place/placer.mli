(** Simulated-annealing standard-cell placement on a uniform grid.

    Cost is total HPWL, optionally weighted per net by timing criticality
    (giving the "careful placement of the critical path" the paper credits
    custom designs with). Placement results are written back into the
    netlist's instance locations. *)

type options = {
  utilization : float;  (** fraction of sites occupied, default 0.6 *)
  sweeps : int;  (** SA sweeps (moves = sweeps x instances), default 50 *)
  seed : int64;
  net_weights : (int -> float) option;  (** per-net multiplier *)
}

val default_options : options

type stats = {
  site_pitch_um : float;
  grid_side : int;
  initial_hpwl_um : float;
  final_hpwl_um : float;
  moves_accepted : int;
}

val place : ?options:options -> Gap_netlist.Netlist.t -> stats
(** Anneals and writes locations. *)

val place_random : ?seed:int64 -> Gap_netlist.Netlist.t -> stats
(** Random scatter over the same grid: the no-floorplanning baseline. *)

val die_side_um : Gap_netlist.Netlist.t -> float
(** Side of the square die implied by total cell area at the default
    options' utilization. *)
