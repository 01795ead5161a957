(** The three-way FPGA / ASIC / custom gap measurement behind experiment
    E11 and [repro fpga-gap].

    Each {!Charm.variant}'s fixture suite is implemented through both
    backends; the measured area / frequency / dynamic-power ratios
    (geometric means over the suite) are compared against the Charm
    targets, and each gap is decomposed into an exact multiplicative factor
    product ([gap ** share] per component, shares summing to one). The
    custom leg reuses the paper's ASIC->custom model from {!Gap_core}. *)

type side = {
  area_um2 : float;
  min_period_ps : float;
  freq_mhz : float;
  dynamic_mw : float;
}

type pair = {
  design : string;
  luts : int;
  lut_levels : int;
  fpga : side;
  asic : side;
  area_ratio : float;  (** FPGA / ASIC *)
  freq_ratio : float;  (** ASIC / FPGA *)
  power_ratio : float;  (** FPGA / ASIC dynamic, both at the ASIC clock *)
}

type summary = {
  variant : Gap_tech.Charm.variant;
  target : Gap_tech.Charm.ratios;
  pairs : pair list;
  area_ratio : float;
  freq_ratio : float;
  power_ratio : float;
  lut_share : float;
  route_share : float;
}

val default_vectors : int
val asic_backend : unit -> Backend.t
(** The reference ASIC backend: rich 0.25um library, default flow effort. *)

val measure : ?vectors:int -> Gap_tech.Charm.variant -> summary

val freq_factors : summary -> (string * float) list
(** Exact factor product of the frequency gap from the measured
    critical-path split (LUT logic vs interconnect). *)

val area_factors : summary -> (string * float) list
val power_factors : summary -> (string * float) list

type t = {
  logic : summary;
  dsp : summary;
  memory : summary;
  asic_custom_speed : float;
  asic_custom_factors : (string * float) list;
  fpga_custom_speed : float;
}

val run : ?vectors:int -> unit -> t

type staged = {
  pipeline : Gap_retime.Pipeline.result;
  stage_slacks : Gap_sta.Sta.stage_slack list;
}

val stage_demo : ?stages:int -> unit -> staged
(** Implement cla16 on the logic fabric, pipeline it (default 4 stages),
    re-annotate routing, and return the stage-resolved slack of the result;
    running it under an {!Gap_obs} recording sink also emits the
    [sta.slack_by_stage.*] histograms that [repro report --by-stage]
    renders. *)

val tolerance : float
(** Relative tolerance of the Charm gates (0.15). *)

type gate = {
  metric : string;
  target_v : float;
  measured : float;
  ok : bool;
}

val gates : t -> gate list
val ok : t -> bool

val to_json : t -> Gap_obs.Json.t
val render : t -> string
