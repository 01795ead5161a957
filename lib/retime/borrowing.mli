(** Time borrowing through level-sensitive latches.

    Sec. 4.1: "ASIC tools have problems with complicated multi-phase clocking
    schemes that would allow time borrowing between pipeline stages to
    increase speed. While there are level-sensitive latches in some ASIC
    libraries, typically only one or two clock phases are used."

    With edge-triggered flops every stage must fit in one period, so the
    clock is set by the {e worst} stage. A transparent latch lets data depart
    late — up to the end of the transparency window — so a long stage can
    borrow time from a short neighbour, and the clock approaches the
    {e average} stage delay. This module computes the minimum period of a
    stage-delay profile under both disciplines:

    departures [t_i] from latch [i] obey
    [t_{i+1} = max 0 (t_i + d_i - P)] with the arrival constraint
    [t_i + d_i - P <= B], where [B] is the transparency window
    ([0] for flops, [duty x P] for latches). *)

type clocking =
  | Edge_ff  (** hard edges: no borrowing *)
  | Two_phase_latch of float
      (** transparent for the given duty fraction of the cycle (e.g. 0.5) *)

val feasible :
  ?ring:bool -> stage_delays:float array -> period:float -> clocking -> bool
(** Whether the profile meets the period. [ring] treats the last stage as
    feeding the first (a loop, as in a processor pipeline with a bypass);
    default is a linear pipeline whose input departs at the edge. *)

val min_period : ?ring:bool -> stage_delays:float array -> clocking -> float
(** Binary search over {!feasible}, to within 1e-3. *)

val borrowing_gain :
  ?ring:bool -> stage_delays:float array -> duty:float -> unit -> float
(** [min_period Edge_ff / min_period (Two_phase_latch duty)]: how much the
    latch discipline recovers from stage imbalance ([1.0] when stages are
    already balanced). *)

val stage_delays_of_pipeline :
  Gap_netlist.Netlist.t -> config:Gap_sta.Sta.config -> float array
(** Extracts per-stage critical delays from a pipelined netlist (produced by
    {!Pipeline.pipeline}): stage [k] is the worst register-to-register (or
    port-to-register) path delay of rank [k], including setup and clk->q.
    Used to feed the borrowing model with real stage imbalance. *)
