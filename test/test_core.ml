(* Tests for Gap_core: factors, gap model, methodology composition,
   reporting. The factor computations are cached, so these integration tests
   pay the synthesis cost once. *)

module F = Gap_core.Factors
module GM = Gap_core.Gap_model
module M = Gap_core.Methodology

let factors = lazy (F.all ())

let test_factor_count_and_names () =
  let fs = Lazy.force factors in
  Alcotest.(check int) "five factors" 5 (List.length fs);
  let names = List.map (fun (f : F.t) -> f.F.factor_name) fs in
  Alcotest.(check bool) "unique names" true
    (List.length (List.sort_uniq compare names) = 5)

let test_factors_near_paper () =
  List.iter
    (fun (f : F.t) ->
      let rel = f.F.modeled /. f.F.paper_max in
      Alcotest.(check bool)
        (Printf.sprintf "%s within 30%% of paper (%.2f vs %.2f)" f.F.factor_name
           f.F.modeled f.F.paper_max)
        true
        (rel > 0.70 && rel < 1.30))
    (Lazy.force factors)

let test_ranked_matches_paper_conclusion () =
  let ranked = F.ranked (Lazy.force factors) in
  let names = List.map (fun (f : F.t) -> f.F.factor_name) ranked in
  (* "the two most significant factors are pipelining and process variation" *)
  Alcotest.(check string) "pipelining first"
    "micro-architecture (pipelining, logic levels)" (List.nth names 0);
  Alcotest.(check string) "process variation second"
    "process variation and accessibility" (List.nth names 1)

let test_composite_range () =
  let fs = Lazy.force factors in
  let c = F.composite fs in
  Alcotest.(check bool) "composite near the paper's ~18x" true (c > 12. && c < 26.);
  Alcotest.(check (float 0.2)) "paper composite" 17.8 (F.paper_composite fs)

let test_residuals () =
  let steps = GM.residual_analysis (Lazy.force factors) in
  Alcotest.(check int) "five steps" 5 (List.length steps);
  let r2 = (List.nth steps 1).GM.residual in
  let r3 = (List.nth steps 2).GM.residual in
  Alcotest.(check bool) "pipe+process residual 2-3x" true (r2 >= 2.0 && r2 <= 3.0);
  Alcotest.(check bool) "+dynamic residual ~1.6-2x" true (r3 >= 1.4 && r3 <= 2.1);
  (* residuals decrease monotonically and end at 1 *)
  let residuals = List.map (fun s -> s.GM.residual) steps in
  let rec decreasing = function
    | a :: (b :: _ as rest) -> a >= b -. 1e-9 && decreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone decreasing" true (decreasing residuals);
  Alcotest.(check (float 1e-6)) "full explanation" 1.0 (List.nth residuals 4)

let test_methodology_ordering () =
  let t = GM.speed_multiplier M.typical_asic in
  let g = GM.speed_multiplier M.good_asic in
  let c = GM.speed_multiplier M.custom in
  Alcotest.(check bool) "typical < good < custom" true (t < g && g < c);
  Alcotest.(check bool) "all at least 1" true (t >= 1.0)

let test_predicted_gap_in_band () =
  let gap = GM.predicted_asic_custom_gap () in
  Alcotest.(check bool) "6-8x" true (gap >= GM.observed_gap_lo && gap <= GM.observed_gap_hi)

let test_gap_between_antisymmetric () =
  let ab = GM.gap_between M.custom M.typical_asic in
  let ba = GM.gap_between M.typical_asic M.custom in
  Alcotest.(check (float 1e-9)) "reciprocal" 1.0 (ab *. ba)

let test_observed_constants () =
  Alcotest.(check (float 1e-9)) "lo" 6. GM.observed_gap_lo;
  Alcotest.(check (float 1e-9)) "hi" 8. GM.observed_gap_hi

let test_pipelining_depth_monotone () =
  let with_stages n = { M.typical_asic with M.pipelining = M.Pipelined n } in
  let s2 = GM.speed_multiplier (with_stages 2) in
  let s5 = GM.speed_multiplier (with_stages 5) in
  let s8 = GM.speed_multiplier (with_stages 8) in
  Alcotest.(check bool) "deeper pipelines score higher" true (s2 < s5 && s5 < s8)

let test_report_tables_render () =
  let fs = Lazy.force factors in
  let t1 = Gap_core.Report.factor_table fs in
  let t2 = Gap_core.Report.residual_table (GM.residual_analysis fs) in
  let t3 = Gap_core.Report.methodology_table [ M.typical_asic; M.custom ] in
  List.iter
    (fun t -> Alcotest.(check bool) "table nonempty" true (String.length t > 100))
    [ t1; t2; t3 ]

let suite =
  [
    ("factor count and names", `Quick, test_factor_count_and_names);
    ("factors near paper values", `Quick, test_factors_near_paper);
    ("ranking matches Sec. 9", `Quick, test_ranked_matches_paper_conclusion);
    ("composite range", `Quick, test_composite_range);
    ("residual analysis", `Quick, test_residuals);
    ("methodology ordering", `Quick, test_methodology_ordering);
    ("predicted gap in 6-8x", `Quick, test_predicted_gap_in_band);
    ("gap_between antisymmetric", `Quick, test_gap_between_antisymmetric);
    ("observed constants", `Quick, test_observed_constants);
    ("pipelining depth monotone", `Quick, test_pipelining_depth_monotone);
    ("report tables render", `Quick, test_report_tables_render);
  ]
