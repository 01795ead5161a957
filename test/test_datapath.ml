(* Tests for Gap_datapath: adders, multiplier, shifter, ALU,
   random logic. All generators are checked bit-accurately against integer
   reference models. *)

module Aig = Gap_logic.Aig
module Word = Gap_datapath.Word

let eval_adder g ~width ~a ~b ~cin =
  let ins =
    Array.concat
      [ Word.to_bools ~width a; Word.to_bools ~width b; [| cin |] ]
  in
  let out = Aig.eval g ins in
  let s = Word.value (Array.sub out 0 width) in
  let cout = out.(width) in
  (s, cout)

let exhaustive_adder_check name gen width =
  let g = gen width in
  for a = 0 to (1 lsl width) - 1 do
    for b = 0 to (1 lsl width) - 1 do
      List.iter
        (fun cin ->
          let s, cout = eval_adder g ~width ~a ~b ~cin in
          let expect = a + b + if cin then 1 else 0 in
          if s <> expect land ((1 lsl width) - 1) || cout <> (expect >= 1 lsl width) then
            Alcotest.failf "%s w%d: %d+%d+%b gave %d/%b" name width a b cin s cout)
        [ false; true ]
    done
  done

let test_adders_exhaustive_4bit () =
  List.iter
    (fun (name, gen) -> exhaustive_adder_check name gen 4)
    Gap_datapath.Adders.architectures

let adder_random_prop (name, gen) =
  let width = 16 in
  let g = gen width in
  QCheck.Test.make
    ~name:(Printf.sprintf "%s adder random 16-bit" name)
    ~count:300
    QCheck.(triple (int_bound 65535) (int_bound 65535) bool)
    (fun (a, b, cin) ->
      let s, cout = eval_adder g ~width ~a ~b ~cin in
      let expect = a + b + if cin then 1 else 0 in
      s = expect land 0xFFFF && cout = (expect >= 65536))

let test_cla_block_sizes () =
  (* non-default block sizes, including ones that don't divide the width *)
  List.iter
    (fun block -> exhaustive_adder_check "cla-block" (Gap_datapath.Adders.cla_adder ~block) 5)
    [ 1; 2; 3; 5; 7 ]

let test_carry_select_blocks () =
  List.iter
    (fun block ->
      exhaustive_adder_check "csel-block" (Gap_datapath.Adders.carry_select_adder ~block) 5)
    [ 2; 3; 4 ]

let test_subtract () =
  let width = 6 in
  let g = Aig.create () in
  let a = Word.inputs g "a" width in
  let b = Word.inputs g "b" width in
  let diff, _ =
    Gap_datapath.Adders.subtract Gap_datapath.Adders.ripple g a b Aig.lit_true
  in
  Word.outputs g "d" diff;
  for x = 0 to 63 do
    for y = 0 to 63 do
      let ins = Array.append (Word.to_bools ~width x) (Word.to_bools ~width y) in
      let out = Aig.eval g ins in
      let d = Word.value out in
      Alcotest.(check int) "a - b" ((x - y) land 63) d
    done
  done

let test_multiplier_exhaustive_4x4 () =
  let width = 4 in
  let g = Gap_datapath.Multiplier.array_multiplier ~width in
  for a = 0 to 15 do
    for b = 0 to 15 do
      let ins = Array.append (Word.to_bools ~width a) (Word.to_bools ~width b) in
      let p = Word.value (Aig.eval g ins) in
      Alcotest.(check int) (Printf.sprintf "%d*%d" a b) (a * b) p
    done
  done

let multiplier_random_prop =
  let width = 10 in
  let g = Gap_datapath.Multiplier.array_multiplier ~width in
  QCheck.Test.make ~name:"multiplier random 10x10" ~count:300
    QCheck.(pair (int_bound 1023) (int_bound 1023))
    (fun (a, b) ->
      let ins = Array.append (Word.to_bools ~width a) (Word.to_bools ~width b) in
      Word.value (Aig.eval g ins) = a * b)

let test_shifter () =
  let width = 8 in
  let g = Gap_datapath.Shifter.barrel_shifter ~width in
  let shw = Gap_datapath.Shifter.shamt_bits width in
  Alcotest.(check int) "shamt bits" 3 shw;
  for a = 0 to 255 do
    for sh = 0 to 7 do
      let ins = Array.append (Word.to_bools ~width a) (Word.to_bools ~width:shw sh) in
      let y = Word.value (Aig.eval g ins) in
      Alcotest.(check int) "shl" ((a lsl sh) land 255) y
    done
  done

let test_shift_right_and_rotate () =
  let width = 8 in
  let shw = Gap_datapath.Shifter.shamt_bits width in
  let g = Aig.create () in
  let a = Word.inputs g "a" width in
  let sh = Word.inputs g "sh" shw in
  Word.outputs g "r" (Gap_datapath.Shifter.shift_right_core g a sh);
  Word.outputs g "rot" (Gap_datapath.Shifter.rotate_left_core g a sh);
  for x = 0 to 255 do
    for s = 0 to 7 do
      let ins = Array.append (Word.to_bools ~width x) (Word.to_bools ~width:shw s) in
      let out = Aig.eval g ins in
      let r = Word.value (Array.sub out 0 width) in
      let rot = Word.value (Array.sub out width width) in
      Alcotest.(check int) "shr" (x lsr s) r;
      Alcotest.(check int) "rotl" (((x lsl s) lor (x lsr (8 - s))) land 255) rot
    done
  done

let alu_prop adder =
  let width = 8 in
  let g = Gap_datapath.Alu.alu ~adder width in
  let shw = Gap_datapath.Shifter.shamt_bits width in
  QCheck.Test.make
    ~name:
      (Printf.sprintf "alu ops vs reference (%s)"
         (match adder with `Ripple -> "ripple" | `Cla -> "cla" | `Kogge_stone -> "ks"))
    ~count:500
    QCheck.(quad (int_bound 255) (int_bound 255) (int_bound 7) (int_bound 7))
    (fun (a, b, sh, op) ->
      let ins =
        Array.concat
          [
            Word.to_bools ~width a;
            Word.to_bools ~width b;
            Word.to_bools ~width:shw sh;
            Word.to_bools ~width:3 op;
          ]
      in
      let y = Word.value (Aig.eval g ins) in
      y = Gap_datapath.Alu.reference ~width ~op ~a ~b ~sh)

let test_random_logic_deterministic () =
  let g1 = Gap_datapath.Random_logic.generate ~seed:5L ~inputs:10 ~outputs:4 ~gates:50 () in
  let g2 = Gap_datapath.Random_logic.generate ~seed:5L ~inputs:10 ~outputs:4 ~gates:50 () in
  let rng = Gap_util.Rng.create () in
  Alcotest.(check bool) "same seed same function" true (Aig.equivalent_random g1 g2 rng);
  Alcotest.(check int) "same size" (Aig.num_ands g1) (Aig.num_ands g2)

let test_random_logic_shape () =
  let g = Gap_datapath.Random_logic.generate ~inputs:20 ~outputs:8 ~gates:300 () in
  Alcotest.(check int) "inputs" 20 (Aig.num_inputs g);
  Alcotest.(check int) "outputs" 8 (Aig.num_outputs g);
  Alcotest.(check bool) "nontrivial depth" true (Aig.depth g > 3)

let test_divider_exhaustive () =
  let width = 5 in
  let g = Gap_datapath.Divider.array_divider ~width in
  for a = 0 to 31 do
    for b = 0 to 31 do
      let ins = Array.append (Word.to_bools ~width a) (Word.to_bools ~width b) in
      let out = Aig.eval g ins in
      let q = Word.value (Array.sub out 0 width) in
      let r = Word.value (Array.sub out width width) in
      let eq, er = Gap_datapath.Divider.reference ~width ~a ~b in
      if (q, r) <> (eq, er) then
        Alcotest.failf "%d / %d: got %d rem %d, want %d rem %d" a b q r eq er
    done
  done

let divider_random_prop =
  let width = 9 in
  let g = Gap_datapath.Divider.array_divider ~width in
  QCheck.Test.make ~name:"divider random 9-bit" ~count:200
    QCheck.(pair (int_bound 511) (int_bound 511))
    (fun (a, b) ->
      let ins = Array.append (Word.to_bools ~width a) (Word.to_bools ~width b) in
      let out = Aig.eval g ins in
      let q = Word.value (Array.sub out 0 width) in
      let r = Word.value (Array.sub out width width) in
      (q, r) = Gap_datapath.Divider.reference ~width ~a ~b)

(* --- encoders --- *)

let test_decoder () =
  let width = 3 in
  let g = Gap_datapath.Encoders.decoder ~width in
  for s = 0 to 7 do
    let out = Aig.eval g (Word.to_bools ~width s) in
    Array.iteri
      (fun i v -> Alcotest.(check bool) "one-hot" (i = s) v)
      out
  done

let test_priority_encoder () =
  let lines = 8 in
  let g = Gap_datapath.Encoders.priority_encoder ~lines in
  for req = 0 to 255 do
    let out = Aig.eval g (Word.to_bools ~width:lines req) in
    let index = Word.value (Array.sub out 0 3) in
    let valid = out.(3) in
    if req = 0 then Alcotest.(check bool) "invalid when no request" false valid
    else begin
      Alcotest.(check bool) "valid" true valid;
      (* highest set bit *)
      let expect = ref 0 in
      for b = 0 to lines - 1 do
        if req land (1 lsl b) <> 0 then expect := b
      done;
      Alcotest.(check int) "highest priority wins" !expect index
    end
  done

let test_mux_tree () =
  let g = Aig.create () in
  let sel = Word.inputs g "s" 2 in
  let data = Word.inputs g "d" 4 in
  Aig.add_output g "y" (Gap_datapath.Encoders.mux_tree_core g sel data);
  for m = 0 to 63 do
    let s = m land 3 and d = m lsr 2 in
    let ins = Array.append (Word.to_bools ~width:2 s) (Word.to_bools ~width:4 d) in
    let out = Aig.eval g ins in
    Alcotest.(check bool) "selects right line" (d land (1 lsl s) <> 0) out.(0)
  done

let test_onehot_check () =
  let g = Aig.create () in
  let x = Word.inputs g "x" 5 in
  Aig.add_output g "oh" (Gap_datapath.Encoders.onehot_check_core g x);
  for m = 0 to 31 do
    let out = Aig.eval g (Word.to_bools ~width:5 m) in
    let pop = ref 0 in
    for b = 0 to 4 do
      if m land (1 lsl b) <> 0 then incr pop
    done;
    Alcotest.(check bool) "exactly one" (!pop = 1) out.(0)
  done

(* --- counting --- *)

let test_popcount () =
  let width = 9 in
  let g = Gap_datapath.Counting.popcount ~width in
  for m = 0 to 511 do
    let out = Aig.eval g (Word.to_bools ~width m) in
    let expect = ref 0 in
    for b = 0 to width - 1 do
      if m land (1 lsl b) <> 0 then incr expect
    done;
    Alcotest.(check int) "popcount" !expect (Word.value out)
  done

let test_parity_increment_gray () =
  let width = 6 in
  let g = Aig.create () in
  let x = Word.inputs g "x" width in
  Aig.add_output g "par" (Gap_datapath.Counting.parity_core g x);
  let inc, carry = Gap_datapath.Counting.incrementer_core g x in
  Word.outputs g "inc" inc;
  Aig.add_output g "cout" carry;
  let gray = Gap_datapath.Counting.gray_encode_core g x in
  Word.outputs g "gray" gray;
  Word.outputs g "back" (Gap_datapath.Counting.gray_decode_core g gray);
  for m = 0 to 63 do
    let out = Aig.eval g (Word.to_bools ~width m) in
    let parity = out.(0) in
    let incv = Word.value (Array.sub out 1 width) in
    let cout = out.(width + 1) in
    let grayv = Word.value (Array.sub out (width + 2) width) in
    let backv = Word.value (Array.sub out (2 * width + 2) width) in
    let pop = ref 0 in
    for b = 0 to width - 1 do
      if m land (1 lsl b) <> 0 then incr pop
    done;
    Alcotest.(check bool) "parity" (!pop land 1 = 1) parity;
    Alcotest.(check int) "increment" ((m + 1) land 63) incv;
    Alcotest.(check bool) "inc carry" (m = 63) cout;
    Alcotest.(check int) "gray" (m lxor (m lsr 1)) grayv;
    Alcotest.(check int) "gray roundtrip" m backv
  done

let test_gray_adjacent_codes () =
  (* successive Gray codes differ in exactly one bit *)
  let width = 5 in
  let g = Aig.create () in
  let x = Word.inputs g "x" width in
  Word.outputs g "g" (Gap_datapath.Counting.gray_encode_core g x);
  let code m = Word.value (Aig.eval g (Word.to_bools ~width m)) in
  for m = 0 to 30 do
    let diff = code m lxor code (m + 1) in
    Alcotest.(check bool) "one bit flips" true (diff land (diff - 1) = 0 && diff <> 0)
  done

let test_result_bits () =
  Alcotest.(check int) "4 bits -> 3" 3 (Gap_datapath.Counting.result_bits 4);
  Alcotest.(check int) "7 bits -> 3" 3 (Gap_datapath.Counting.result_bits 7);
  Alcotest.(check int) "8 bits -> 4" 4 (Gap_datapath.Counting.result_bits 8)

let test_word_helpers () =
  Alcotest.(check int) "value little-endian" 6 (Word.value [| false; true; true |]);
  Alcotest.(check (array bool)) "to_bools" [| true; false; true |] (Word.to_bools ~width:3 5);
  let g = Aig.create () in
  let w = Word.const g ~width:4 0b1010 in
  Alcotest.(check int) "const drops high bits" Aig.lit_false w.(0);
  Alcotest.(check int) "const bit set" Aig.lit_true w.(1)

let suite =
  [
    ("adders exhaustive 4-bit", `Quick, test_adders_exhaustive_4bit);
    QCheck_alcotest.to_alcotest (adder_random_prop (List.nth Gap_datapath.Adders.architectures 0));
    QCheck_alcotest.to_alcotest (adder_random_prop (List.nth Gap_datapath.Adders.architectures 1));
    QCheck_alcotest.to_alcotest (adder_random_prop (List.nth Gap_datapath.Adders.architectures 2));
    QCheck_alcotest.to_alcotest (adder_random_prop (List.nth Gap_datapath.Adders.architectures 3));
    ("cla odd block sizes", `Quick, test_cla_block_sizes);
    ("carry-select block sizes", `Quick, test_carry_select_blocks);
    ("subtractor", `Quick, test_subtract);
    ("multiplier exhaustive 4x4", `Quick, test_multiplier_exhaustive_4x4);
    QCheck_alcotest.to_alcotest multiplier_random_prop;
    ("barrel shifter", `Quick, test_shifter);
    ("shift right / rotate", `Quick, test_shift_right_and_rotate);
    QCheck_alcotest.to_alcotest (alu_prop `Ripple);
    QCheck_alcotest.to_alcotest (alu_prop `Cla);
    QCheck_alcotest.to_alcotest (alu_prop `Kogge_stone);
    ("random logic deterministic", `Quick, test_random_logic_deterministic);
    ("random logic shape", `Quick, test_random_logic_shape);
    ("word helpers", `Quick, test_word_helpers);
    ("decoder one-hot", `Quick, test_decoder);
    ("priority encoder", `Quick, test_priority_encoder);
    ("mux tree", `Quick, test_mux_tree);
    ("one-hot checker", `Quick, test_onehot_check);
    ("popcount", `Quick, test_popcount);
    ("parity/increment/gray", `Quick, test_parity_increment_gray);
    ("gray adjacency", `Quick, test_gray_adjacent_codes);
    ("popcount result bits", `Quick, test_result_bits);
    ("divider exhaustive 5-bit", `Quick, test_divider_exhaustive);
    QCheck_alcotest.to_alcotest divider_random_prop;
  ]
