(* Tests for Gap_netlist.Verilog: write / read round-trips. *)

module Netlist = Gap_netlist.Netlist
module Verilog = Gap_netlist.Verilog
module Sim = Gap_netlist.Sim
module Libgen = Gap_liberty.Libgen
module Library = Gap_liberty.Library

let lib = lazy (Libgen.make Gap_tech.Tech.asic_025um Libgen.rich)

let roundtrip_equivalent ?(vectors = 200) nl =
  let src = Verilog.write nl in
  let nl2 = Verilog.read ~lib:(Lazy.force lib) src in
  Alcotest.(check int) "same inputs" (Netlist.num_inputs nl) (Netlist.num_inputs nl2);
  Alcotest.(check int) "same outputs" (Netlist.num_outputs nl) (Netlist.num_outputs nl2);
  Alcotest.(check int) "same instance count" (Netlist.num_instances nl)
    (Netlist.num_instances nl2);
  let rng = Gap_util.Rng.create ~seed:77L () in
  let n = Netlist.num_inputs nl in
  for _ = 1 to vectors do
    let ins = Array.init n (fun _ -> Gap_util.Rng.bool rng) in
    let o1 = Sim.eval nl (Sim.initial nl) ins in
    let o2 = Sim.eval nl2 (Sim.initial nl2) ins in
    Alcotest.(check bool) "same function" true (o1 = o2)
  done;
  nl2

let test_roundtrip_adder () =
  let g = Gap_datapath.Adders.cla_adder 8 in
  let nl = Gap_synth.Mapper.map_aig ~lib:(Lazy.force lib) ~name:"cla8" g in
  ignore (roundtrip_equivalent nl)

let test_roundtrip_preserves_timing () =
  let g = Gap_datapath.Adders.kogge_stone_adder 8 in
  let nl = Gap_synth.Mapper.map_aig ~lib:(Lazy.force lib) ~name:"ks8" g in
  let nl2 = roundtrip_equivalent nl in
  let p1 = (Gap_sta.Sta.analyze nl).Gap_sta.Sta.min_period_ps in
  let p2 = (Gap_sta.Sta.analyze nl2).Gap_sta.Sta.min_period_ps in
  Alcotest.(check (float 1e-6)) "same min period" p1 p2

let test_roundtrip_sequential () =
  (* pipelined netlist: flops, CK port, multi-cycle behaviour *)
  let g = Gap_datapath.Adders.ripple_adder 4 in
  let effort = { Gap_synth.Flow.default_effort with Gap_synth.Flow.tilos_moves = 0 } in
  let nl = (Gap_synth.Flow.run ~lib:(Lazy.force lib) ~effort ~name:"pipe4" g).Gap_synth.Flow.netlist in
  ignore (Gap_retime.Pipeline.pipeline ~stages:2 nl);
  let src = Verilog.write nl in
  let nl2 = Verilog.read ~lib:(Lazy.force lib) src in
  Alcotest.(check int) "flop count preserved"
    (List.length (Netlist.flops nl))
    (List.length (Netlist.flops nl2));
  (* sequential equivalence over a short random stream *)
  let rng = Gap_util.Rng.create ~seed:8L () in
  let n = Netlist.num_inputs nl in
  let stream = List.init 20 (fun _ -> Array.init n (fun _ -> Gap_util.Rng.bool rng)) in
  Alcotest.(check bool) "sequential behaviour preserved" true
    (Sim.run nl stream = Sim.run nl2 stream)

let test_roundtrip_constants () =
  let lib = Lazy.force lib in
  let nl = Netlist.create ~lib "consts" in
  let a = Netlist.add_input nl "a" in
  let one = Netlist.add_const nl true in
  let cell = Option.get (Library.find lib ~base:"AND2" ~drive:1.) in
  let inst = Netlist.add_cell nl cell [| a; one |] in
  ignore (Netlist.set_output nl "y" (Netlist.out_net nl inst));
  ignore (roundtrip_equivalent ~vectors:4 nl)

let test_write_is_parsable_text () =
  let g = Gap_datapath.Adders.cla_adder 4 in
  let nl = Gap_synth.Mapper.map_aig ~lib:(Lazy.force lib) ~name:"cla4" g in
  let src = Verilog.write nl in
  let contains sub =
    let n = String.length sub and m = String.length src in
    let rec go i = i + n <= m && (String.sub src i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "module header" true (contains "module cla4");
  Alcotest.(check bool) "endmodule" true (contains "endmodule");
  Alcotest.(check bool) "named connections" true (contains ".Y(")

let test_reader_rejects_unknown_cell () =
  let src = "module m (a, y);\n input a;\n output y;\n FROB_X1 u0 (.A(a), .Y(y));\nendmodule\n" in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Verilog.read ~lib:(Lazy.force lib) src);
       false
     with Verilog.Parse_error _ -> true)

let test_reader_rejects_garbage () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Verilog.read ~lib:(Lazy.force lib) "module ( broken");
       false
     with Verilog.Parse_error _ -> true)

let test_reader_out_of_order_instances () =
  (* u1 uses u0's output but is declared first: the elaborator must iterate *)
  let src =
    "module m (a, y);\n\
     input a;\n output y;\n wire t;\n wire t2;\n\
     INV_X1 u1 (.A(t), .Y(t2));\n\
     INV_X1 u0 (.A(a), .Y(t));\n\
     assign y = t2;\n\
     endmodule\n"
  in
  let nl = Verilog.read ~lib:(Lazy.force lib) src in
  Alcotest.(check int) "two inverters" 2 (Netlist.num_instances nl);
  let o = Sim.eval nl (Sim.initial nl) [| true |] in
  Alcotest.(check bool) "double inversion" true o.(0)

let verilog_roundtrip_random =
  QCheck.Test.make ~name:"verilog roundtrip on random logic" ~count:8
    QCheck.(int_range 0 10000)
    (fun seed ->
      let g =
        Gap_datapath.Random_logic.generate ~seed:(Int64.of_int seed) ~inputs:8
          ~outputs:4 ~gates:80 ()
      in
      let nl = Gap_synth.Mapper.map_aig ~lib:(Lazy.force lib) g in
      let nl2 = Verilog.read ~lib:(Lazy.force lib) (Verilog.write nl) in
      let rng = Gap_util.Rng.create () in
      let ok = ref true in
      for _ = 1 to 60 do
        let ins = Array.init 8 (fun _ -> Gap_util.Rng.bool rng) in
        if Sim.eval nl (Sim.initial nl) ins <> Sim.eval nl2 (Sim.initial nl2) ins then
          ok := false
      done;
      !ok)

let test_pin_names () =
  Alcotest.(check string) "pin 0" "A" (Verilog.pin_name 0);
  Alcotest.(check string) "pin 3" "D" (Verilog.pin_name 3);
  (* bijective base-26: Z rolls over to AA, not BA *)
  Alcotest.(check string) "pin 25" "Z" (Verilog.pin_name 25);
  Alcotest.(check string) "pin 26" "AA" (Verilog.pin_name 26);
  Alcotest.(check string) "pin 27" "AB" (Verilog.pin_name 27);
  Alcotest.(check string) "pin 51" "AZ" (Verilog.pin_name 51);
  Alcotest.(check string) "pin 52" "BA" (Verilog.pin_name 52);
  Alcotest.(check string) "pin 701" "ZZ" (Verilog.pin_name 701);
  Alcotest.(check string) "pin 702" "AAA" (Verilog.pin_name 702);
  Alcotest.(check (option int)) "AA decodes" (Some 26) (Verilog.pin_index "AA");
  Alcotest.(check (option int)) "lowercase rejected" None (Verilog.pin_index "aa");
  Alcotest.(check (option int)) "empty rejected" None (Verilog.pin_index "");
  Alcotest.(check (option int)) "digits rejected" None (Verilog.pin_index "A1")

let pin_name_roundtrip =
  QCheck.Test.make ~name:"pin_name/pin_index round-trip" ~count:500
    QCheck.(int_range 0 100_000)
    (fun i -> Verilog.pin_index (Verilog.pin_name i) = Some i)

let test_reader_fuzz_no_crash () =
  (* byte-level mutations of valid Verilog must either parse or raise
     Parse_error — never escape with an unrelated exception *)
  let g = Gap_datapath.Adders.ripple_adder 4 in
  let nl = Gap_synth.Mapper.map_aig ~lib:(Lazy.force lib) ~name:"fuzz" g in
  let src = Verilog.write nl in
  let rng = Gap_util.Rng.create ~seed:99L () in
  let printable = "abyz01();.,_\"= " in
  for _ = 1 to 200 do
    let b = Bytes.of_string src in
    for _ = 1 to 1 + Gap_util.Rng.int rng 4 do
      let pos = Gap_util.Rng.int rng (Bytes.length b) in
      Bytes.set b pos printable.[Gap_util.Rng.int rng (String.length printable)]
    done;
    match Verilog.read ~lib:(Lazy.force lib) (Bytes.to_string b) with
    | (_ : Netlist.t) -> ()
    | exception Verilog.Parse_error _ -> ()
  done

let suite =
  [
    ("roundtrip adder", `Quick, test_roundtrip_adder);
    ("roundtrip preserves timing", `Quick, test_roundtrip_preserves_timing);
    ("roundtrip sequential", `Quick, test_roundtrip_sequential);
    ("roundtrip constants", `Quick, test_roundtrip_constants);
    ("writer output shape", `Quick, test_write_is_parsable_text);
    ("reader rejects unknown cell", `Quick, test_reader_rejects_unknown_cell);
    ("reader rejects garbage", `Quick, test_reader_rejects_garbage);
    ("reader handles forward refs", `Quick, test_reader_out_of_order_instances);
    ("pin names", `Quick, test_pin_names);
    QCheck_alcotest.to_alcotest pin_name_roundtrip;
    QCheck_alcotest.to_alcotest verilog_roundtrip_random;
    ("reader fuzz: no crash", `Quick, test_reader_fuzz_no_crash);
  ]
