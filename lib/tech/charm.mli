(** The Charm [fpga2asic] empirical FPGA/ASIC gap model (Kuon & Rose,
    "Measuring the gap between FPGAs and ASICs", 90nm Stratix II data; see
    SNIPPETS.md).

    These constants are the calibration targets for {!Gap_fpga}'s fabric
    model and the scaling applied to FPGA-backend points in [Gap_dse.Eval];
    keeping them here — below both libraries in the dependency graph —
    makes them the single source of truth. *)

type variant =
  | Logic  (** soft logic only: the headline x35 / x3.4 / x14 gaps *)
  | Logic_dsp  (** designs using hard multiplier/DSP blocks *)
  | Logic_memory  (** designs using hard block RAM *)
  | Logic_memory_dsp  (** both hard block families in use *)

type ratios = {
  area : float;  (** FPGA area / ASIC area *)
  freq : float;  (** ASIC fmax / FPGA fmax *)
  dynamic_power : float;
      (** FPGA / ASIC dynamic power with both at the same clock — a
          switched-capacitance ratio; FPGA static power excluded *)
}

val ratios : variant -> ratios
val variant_name : variant -> string
