(** Hierarchical process-variation model.

    Chip speed varies at several spatial scales (Sec. 8.1.1: "line-to-line;
    wafer-to-wafer; die-to-die, and intra-die"). We model the maximum
    frequency of a die as

    [fmax = nominal x fab_mean x (1 + lot + wafer + die) x (1 - intra_penalty)]

    with [lot], [wafer], [die] independent zero-mean Gaussians and the
    intra-die term a half-normal penalty (the critical path samples the worst
    of many on-die paths, so within-die spread only ever hurts).

    Sigma presets are calibrated against the spreads the paper reports:
    a {e new} process shows a 30-40% end-to-end spread in shipped parts
    (Intel's first 0.18um parts spanned 533-733 MHz), a {e mature} one
    roughly half that. *)

type sigmas = {
  lot : float;
  wafer : float;
  die : float;
  intra : float;
}

val mature : sigmas
val new_process : sigmas
val total_sigma : sigmas -> float
(** RSS of the die-to-die components (excluding intra). *)

type t = {
  sigmas : sigmas;
  fab_mean : float;  (** fab line's mean speed relative to nominal *)
}

val make : ?fab_mean:float -> sigmas -> t

val sample_speed_factor : t -> Gap_util.Rng.t -> float
(** Multiplicative fmax factor for one die; always positive. *)

val draws_per_die : int
(** Standard normals one die consumes (lot, wafer, die, intra), i.e. the
    per-die stride of the normals {!fill_fmax} reads. *)

val fill_fmax :
  t ->
  z:Gap_util.Stats.buf ->
  out:Gap_util.Stats.buf ->
  pos:int ->
  len:int ->
  nominal_mhz:float ->
  unit
(** [fill_fmax t ~z ~out ~pos ~len ~nominal_mhz] writes
    [nominal_mhz x speed-factor] for [len] dies into
    [out.{pos .. pos+len-1}], die [i] from the standard normals
    [z.{draws_per_die*i ..}] ([z] holds at least [draws_per_die * len]).
    When [z] holds a generator's {!Gap_util.Rng.normal_std_fill} stream,
    the result is bit-identical to [len] successive
    [nominal_mhz *. sample_speed_factor t rng] evaluations on that
    generator. The normals do not depend on [t], so one stream serves every
    model; the loop only reads [z] and allocates nothing. *)

(** {1 Fab accessibility (Sec. 8.1.2)} *)

val best_fab : float
(** Mean speed of the best available fab line: +5%. *)

val typical_fab : float

val slow_fab : float
(** The "worse fabrication plants" an ASIC may be committed to: -15%
    (the paper's 20-25% fab-to-fab span is [best_fab/slow_fab]). *)

(** {1 Signoff derating (Sec. 8.2)} *)

val voltage_temp_derate : float
(** Worst-case voltage/temperature corner factor applied on top of process
    slow corner when a library quotes "worst case" delay: 0.85. *)

val worst_case_sigma_count : float
(** Process corner distance used by library characterization: 3 sigma. *)

val signoff_speed : t -> float
(** The worst-case speed an ASIC library would quote on this fab line:
    [fab_mean x (1 - k sigma) x derate]. *)
