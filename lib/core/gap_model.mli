(** The paper's headline analysis: compose the factor models, compare against
    the observed 6-8x ASIC-custom gap, and compute the residuals of Sec. 9
    ("pipelining and process variation ... account for all except a factor of
    about 2 to 3x; [with] dynamic-logic ... all but a factor of about
    1.6x"). *)

val observed_gap_lo : float
val observed_gap_hi : float

type residual_step = {
  after_factors : string list;  (** factors applied so far *)
  explained : float;  (** product of their modeled values *)
  residual : float;  (** composite / explained, the paper's Sec. 9 quantity *)
}

val residual_analysis : Factors.t list -> residual_step list
(** Progressive explanation in the paper's order of importance: pipelining,
    process variation, dynamic logic, then the rest. *)

(** {1 Methodology-level speed estimates} *)

val overlap_kappa : float
(** Log-domain overlap coefficient applied when composing factors into a
    methodology-level estimate (0.72): the individual factor maxima are
    measured one at a time and overlap when applied jointly — the paper's own
    observation that the raw ~18x product exceeds the observed 6-8x gap. *)

val speed_multiplier : Methodology.t -> float
(** Frequency multiplier of a methodology relative to {e worst practice}
    (unpipelined, scattered, poor library, minimal sizing, static, ASIC
    clock, slow-fab worst-case). Each axis contributes the fraction of its
    factor's modeled range that the choice unlocks; the product is discounted
    by {!overlap_kappa}. *)

val gap_between : Methodology.t -> Methodology.t -> float
(** [speed_multiplier a /. speed_multiplier b]. *)

val predicted_asic_custom_gap : unit -> float
(** [gap_between custom typical_asic]: should land in the observed 6-8x. *)
