(** E9 (Sec. 8): process variation and accessibility.

    Monte Carlo over the hierarchical variation model, plus the binning
    arithmetic: typical-vs-worst-case, top-bin gain, fab-to-fab span,
    speed-test gain, new-process spread, and the maturity anchors (Intel 856
    shrink, library updates). *)

module V = Gap_variation.Model
module MC = Gap_variation.Montecarlo
module B = Gap_variation.Binning

let run () =
  let dies = 20000 and nominal = 250. in
  let typical = MC.simulate ~model:(V.make ~fab_mean:V.typical_fab V.mature) ~nominal_mhz:nominal ~dies () in
  let slow_fab = MC.simulate ~seed:7L ~model:(V.make ~fab_mean:V.slow_fab V.mature) ~nominal_mhz:nominal ~dies () in
  let best_fab = MC.simulate ~seed:9L ~model:(V.make ~fab_mean:V.best_fab V.mature) ~nominal_mhz:nominal ~dies () in
  let new_proc = MC.simulate ~seed:11L ~model:(V.make V.new_process) ~nominal_mhz:nominal ~dies () in
  let typ_vs_worst = MC.percentile typical 50. /. (nominal *. V.signoff_speed (V.make ~fab_mean:V.slow_fab V.mature)) in
  let top_bin = B.top_bin_vs_typical new_proc in
  let custom_vs_asic = B.custom_best_vs_asic_worst ~custom:best_fab ~asic:slow_fab in
  let test_gain = B.speed_test_gain typical in
  let shrink = Gap_variation.Maturity.shrink_speed_gain ~linear_shrink:0.05 in
  let spread = Gap_variation.Maturity.initial_spread in
  let top_bin_yield = MC.fraction_above new_proc (MC.percentile new_proc 99.) in
  {
    Exp.id = "E9";
    title = "process variation, binning, and fab access";
    section = "Sec. 8";
    rows =
      [
        Exp.row
          ~verdict:(Exp.check typ_vs_worst ~lo:1.6 ~hi:1.7)
          ~label:"typical silicon vs worst-case rating (slow fab)" ~paper:"60-70% faster"
          ~measured:(Exp.ratio typ_vs_worst) ();
        Exp.row
          ~verdict:(Exp.check top_bin ~lo:1.2 ~hi:1.4)
          ~label:"fastest bins vs typical (new process)" ~paper:"20-40% faster"
          ~measured:(Exp.ratio top_bin) ();
        Exp.row
          ~verdict:(Exp.check top_bin_yield ~lo:0.0 ~hi:0.05)
          ~label:"yield of that top bin" ~paper:"without sufficient yield"
          ~measured:(Exp.pct top_bin_yield) ();
        Exp.row
          ~verdict:(Exp.check custom_vs_asic ~lo:1.7 ~hi:2.2)
          ~label:"fastest custom (best fab) vs ASIC worst-case (slow fab)"
          ~paper:"~90% faster"
          ~measured:(Exp.ratio custom_vs_asic) ();
        Exp.row
          ~verdict:(Exp.check B.fab_to_fab_span ~lo:0.20 ~hi:0.25)
          ~label:"same design across foundries" ~paper:"20-25%"
          ~measured:(Exp.pct B.fab_to_fab_span) ();
        Exp.row
          ~verdict:(Exp.check test_gain ~lo:1.25 ~hi:1.45)
          ~label:"per-part speed testing vs worst-case rating" ~paper:"30-40%"
          ~measured:(Exp.ratio test_gain) ();
        Exp.row
          ~verdict:(Exp.check spread ~lo:0.30 ~hi:0.40)
          ~label:"new-process shipped-speed spread (Intel 0.18um: 533-733 MHz)"
          ~paper:"30-40%"
          ~measured:(Exp.pct spread) ();
        Exp.row
          ~verdict:(Exp.check shrink ~lo:0.15 ~hi:0.21)
          ~label:"5% optical shrink (Intel 856)" ~paper:"+18% speed"
          ~measured:(Exp.pct shrink) ();
        Exp.row
          ~verdict:
            (Exp.check (Gap_variation.Maturity.library_update_gain ~months:24.) ~lo:0.15
               ~hi:0.20)
          ~label:"library re-characterization over a generation" ~paper:"up to 20%"
          ~measured:(Exp.pct (Gap_variation.Maturity.library_update_gain ~months:24.))
          ();
      ];
    notes =
      [
        Printf.sprintf "Monte Carlo: %d dies per arm; typical-fab p1/p50/p99 = %s / %s / %s"
          dies
          (Exp.mhz (MC.percentile typical 1.))
          (Exp.mhz (MC.percentile typical 50.))
          (Exp.mhz (MC.percentile typical 99.));
      ];
  }
