let observed_gap_lo = 6.
let observed_gap_hi = 8.

type residual_step = {
  after_factors : string list;
  explained : float;
  residual : float;
}

let residual_analysis factors =
  (* Paper order: pipelining, process variation, dynamic logic, then the
     remaining two. Residuals are measured against the full composite, as in
     Sec. 9: "pipelining and process variation ... account for all except a
     factor of about 2 to 3x" = composite / (pipelining x variation). *)
  let composite = Factors.composite factors in
  let find name =
    List.find (fun (f : Factors.t) -> f.Factors.factor_name = name) factors
  in
  let order =
    [
      "micro-architecture (pipelining, logic levels)";
      "process variation and accessibility";
      "dynamic logic on critical paths";
      "floorplanning and placement";
      "transistor/wire sizing, circuit design";
    ]
  in
  let rec go applied explained = function
    | [] -> []
    | name :: rest ->
        let f = find name in
        let applied = applied @ [ name ] in
        let explained = explained *. f.Factors.modeled in
        { after_factors = applied; explained; residual = composite /. explained }
        :: go applied explained rest
  in
  go [] 1. order

(* Methodology axis -> fraction of a factor's modeled ratio that the choice
   captures. A ratio r captured at fraction a contributes r^a (log-linear
   interpolation), so "half the benefit" composes sensibly. *)
let partial ratio fraction = ratio ** fraction

let overlap_kappa = 0.72

let speed_multiplier (m : Methodology.t) =
  let fs = Factors.all () in
  let get name = (List.find (fun (f : Factors.t) -> f.Factors.factor_name = name) fs).Factors.modeled in
  let uarch = get "micro-architecture (pipelining, logic levels)" in
  let floorplan = get "floorplanning and placement" in
  let sizing = get "transistor/wire sizing, circuit design" in
  let domino = get "dynamic logic on critical paths" in
  let process = get "process variation and accessibility" in
  let pipe_mult =
    match m.Methodology.pipelining with
    | Methodology.Unpipelined -> 1.
    | Methodology.Pipelined stages ->
        (* fraction of the full (deep custom) pipelining benefit; the
           reference custom point is ~8 effective stages *)
        let frac = Float.min 1. (log (float_of_int stages) /. log 8.) in
        partial uarch frac
  in
  let fp_mult =
    match m.Methodology.floorplanning with
    | Methodology.Automatic_scatter -> 1.
    | Methodology.Careful -> floorplan
  in
  let lib_sizing_mult =
    match (m.Methodology.library, m.Methodology.sizing) with
    | Methodology.Poor_two_drive, Methodology.None_minimal -> 1.
    | Methodology.Rich, Methodology.None_minimal -> partial sizing 0.5
    | Methodology.Poor_two_drive, Methodology.Critical_path_sized -> partial sizing 0.5
    | Methodology.Rich, Methodology.Critical_path_sized -> sizing
  in
  let logic_mult =
    match m.Methodology.logic_family with
    | Methodology.Static_only -> 1.
    | Methodology.Domino_on_critical -> domino
  in
  let clock_mult =
    match m.Methodology.clocking with
    | Methodology.Asic_tree -> 1.
    | Methodology.Custom_tuned_tree ->
        (* ~5% of cycle recovered: Sec. 4.1's skew comparison *)
        1.05
  in
  let process_mult =
    match m.Methodology.process with
    | Methodology.Worst_case_slow_fab -> 1.
    | Methodology.Worst_case_typical_fab -> partial process 0.25
    | Methodology.Speed_tested -> partial process 0.55
    | Methodology.Best_fab_binned -> process
  in
  let raw =
    pipe_mult *. fp_mult *. lib_sizing_mult *. logic_mult *. clock_mult *. process_mult
  in
  (* Overlap discount: the per-factor maxima are measured one at a time
     against a common baseline, but jointly they overlap — the chip-derived
     pipelining depths already bank part of the domino and sizing gains, and
     deep pipelines shorten the global wires floorplanning would have fixed.
     The paper makes the same observation from the other side: the raw
     product is ~18x while real custom parts show only 6-8x. A single
     log-domain coefficient (raw^kappa) calibrated on that anchor captures
     it. *)
  raw ** overlap_kappa

let gap_between a b = speed_multiplier a /. speed_multiplier b

let predicted_asic_custom_gap () =
  gap_between Methodology.custom Methodology.typical_asic
