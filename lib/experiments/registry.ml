let all =
  [
    ("E1", "processor speeds and the 6-8x gap", E1_processors.run);
    ("E2", "factor overview table", E2_factors.run);
    ("E3", "pipelining speedups", E3_pipelining.run);
    ("E4", "FO4 logic depths", E4_fo4_depth.run);
    ("E5", "clock skew and latch overhead", E5_clock_skew.run);
    ("E6", "floorplanning and global wires", E6_floorplanning.run);
    ("E7", "library richness and sizing", E7_library_sizing.run);
    ("E8", "dynamic logic", E8_dynamic_logic.run);
    ("E9", "process variation and binning", E9_process_variation.run);
    ("E10", "residual gap analysis", E10_residual.run);
    ("E11", "FPGA/ASIC/custom three-way gap", E11_fpga_gap.run);
  ]

let extensions =
  [
    ("X1", "power costs of circuit styles", X1_power.run);
    ("X2", "speed-bin economics", X2_economics.run);
    ("X3", "flow ablations and extension models", X3_ablations.run);
    ("X4", "feedback loops vs pipelining", X4_sequential.run);
    ("X5", "regularity, area, multi-issue", X5_area_regularity.run);
    ("X6", "optimal pipeline depth and hold safety", X6_optimal_depth.run);
    ("X7", "noise margins and skew-tolerance cost", X7_noise_hold.run);
    ("X8", "deep-submicron trends", X8_scaling_trends.run);
  ]

let find id =
  let id = String.uppercase_ascii id in
  List.find_map
    (fun (i, _, f) -> if i = id then Some (Exp.observed i f) else None)
    (all @ extensions)

let summary results =
  let buf = Buffer.create 256 in
  let total_p = ref 0 and total_c = ref 0 in
  List.iter
    (fun (r : Exp.result) ->
      let p, c = Exp.passes r in
      total_p := !total_p + p;
      total_c := !total_c + c;
      Buffer.add_string buf
        (Printf.sprintf "%-4s %-45s %d/%d in paper range\n" r.Exp.id r.Exp.title p c))
    results;
  Buffer.add_string buf
    (Printf.sprintf "TOTAL: %d/%d checkable claims within the paper's stated ranges\n"
       !total_p !total_c);
  Buffer.contents buf
