(* Tests for Gap_logic: truth tables, NPN classification, AIGs. *)

module Tt = Gap_logic.Truthtable
module Npn = Gap_logic.Npn
module Aig = Gap_logic.Aig

let tt_gen vars =
  QCheck.Gen.map (fun bits -> Tt.create ~vars bits) QCheck.Gen.int64

let tt_arb vars = QCheck.make ~print:(Format.asprintf "%a" Tt.pp) (tt_gen vars)

(* --- truth tables --- *)

let test_tt_var () =
  let x0 = Tt.var ~vars:2 0 and x1 = Tt.var ~vars:2 1 in
  Alcotest.(check bool) "x0 at m=1" true (Tt.eval x0 1);
  Alcotest.(check bool) "x0 at m=2" false (Tt.eval x0 2);
  Alcotest.(check bool) "x1 at m=2" true (Tt.eval x1 2);
  Alcotest.(check bool) "x1 at m=1" false (Tt.eval x1 1)

let test_tt_ops () =
  let vars = 3 in
  let a = Tt.var ~vars 0 and b = Tt.var ~vars 1 in
  let and_ab = Tt.logand a b in
  for m = 0 to 7 do
    Alcotest.(check bool) "and semantics" (m land 1 <> 0 && m land 2 <> 0) (Tt.eval and_ab m)
  done;
  Alcotest.(check bool) "xor differs from or" false
    (Tt.equal (Tt.logxor a b) (Tt.logor a b))

let de_morgan =
  QCheck.Test.make ~name:"tt De Morgan" ~count:300
    (QCheck.pair (tt_arb 4) (tt_arb 4))
    (fun (a, b) ->
      Tt.equal (Tt.lognot (Tt.logand a b)) (Tt.logor (Tt.lognot a) (Tt.lognot b)))

let shannon_expansion =
  QCheck.Test.make ~name:"tt Shannon expansion" ~count:300 (tt_arb 4) (fun f ->
      let x = Tt.var ~vars:4 2 in
      let f1 = Tt.cofactor f 2 true and f0 = Tt.cofactor f 2 false in
      Tt.equal f (Tt.logor (Tt.logand x f1) (Tt.logand (Tt.lognot x) f0)))

let test_tt_depends () =
  let vars = 3 in
  let f = Tt.logand (Tt.var ~vars 0) (Tt.var ~vars 2) in
  Alcotest.(check bool) "depends on 0" true (Tt.depends_on f 0);
  Alcotest.(check bool) "not on 1" false (Tt.depends_on f 1);
  Alcotest.(check int) "support" 2 (Tt.support_size f)

let permute_roundtrip =
  QCheck.Test.make ~name:"tt permute by inverse permutation" ~count:200 (tt_arb 4)
    (fun f ->
      let p = [| 2; 0; 3; 1 |] in
      let inv = Array.make 4 0 in
      Array.iteri (fun i pi -> inv.(pi) <- i) p;
      Tt.equal f (Tt.permute (Tt.permute f p) inv))

let negate_involution =
  QCheck.Test.make ~name:"tt negate_input involution" ~count:200 (tt_arb 4) (fun f ->
      Tt.equal f (Tt.negate_input (Tt.negate_input f 1) 1))

let test_tt_monotone () =
  let vars = 3 in
  let and3 = Tt.logand (Tt.logand (Tt.var ~vars 0) (Tt.var ~vars 1)) (Tt.var ~vars 2) in
  let maj =
    Tt.of_fun ~vars (fun m ->
        let b i = m land (1 lsl i) <> 0 in
        (b 0 && b 1) || (b 0 && b 2) || (b 1 && b 2))
  in
  let xor = Tt.logxor (Tt.var ~vars 0) (Tt.var ~vars 1) in
  Alcotest.(check bool) "and3 monotone" true (Tt.is_monotone and3);
  Alcotest.(check bool) "maj monotone" true (Tt.is_monotone maj);
  Alcotest.(check bool) "xor not monotone" false (Tt.is_monotone xor);
  Alcotest.(check bool) "nand not positive unate" false
    (Tt.is_positive_unate_in (Tt.lognot and3) 0)

let test_tt_expand () =
  let f = Tt.logand (Tt.var ~vars:2 0) (Tt.var ~vars:2 1) in
  let g = Tt.expand f ~vars:4 in
  Alcotest.(check int) "vars" 4 (Tt.vars g);
  Alcotest.(check bool) "same function" true (Tt.eval g 0b1011 && not (Tt.eval g 0b1001))

let test_tt_count_ones () =
  Alcotest.(check int) "and2 has one minterm" 1
    (Tt.count_ones (Tt.logand (Tt.var ~vars:2 0) (Tt.var ~vars:2 1)));
  Alcotest.(check int) "const true 3 vars" 8 (Tt.count_ones (Tt.const_true ~vars:3))

(* --- NPN --- *)

let test_npn_permutation_count () =
  Alcotest.(check int) "4!" 24 (List.length (Npn.permutations 4));
  Alcotest.(check int) "3!" 6 (List.length (Npn.permutations 3))

let npn_canonical_invariant =
  QCheck.Test.make ~name:"npn canonical is transform-invariant" ~count:150
    (QCheck.pair (tt_arb 3) (QCheck.make QCheck.Gen.(pair (int_bound 5) (pair (int_bound 7) bool))))
    (fun (f, (perm_idx, (neg_mask, out_neg))) ->
      let perm = List.nth (Npn.permutations 3) perm_idx in
      let t = { Npn.perm; input_neg = neg_mask; output_neg = out_neg } in
      let g = Npn.apply f t in
      Int64.equal (Npn.canonical_key f) (Npn.canonical_key g))

let npn_match_roundtrip =
  QCheck.Test.make ~name:"npn match_against wires correctly" ~count:150
    (QCheck.pair (tt_arb 3) (tt_arb 3))
    (fun (target, candidate) ->
      match Npn.match_against ~target ~candidate with
      | None -> not (Int64.equal (Npn.canonical_key target) (Npn.canonical_key candidate))
      | Some t -> Tt.equal (Npn.apply candidate t) target)

let test_npn_best_match_cost () =
  (* AND2 as target, NAND2 as candidate: best wiring needs exactly one
     negation (the output) *)
  let vars = 2 in
  let and2 = Tt.logand (Tt.var ~vars 0) (Tt.var ~vars 1) in
  let nand2 = Tt.lognot and2 in
  match Npn.best_match ~target:and2 ~candidate:nand2 with
  | None -> Alcotest.fail "NAND2 matches AND2 up to NPN"
  | Some t -> Alcotest.(check int) "one negation" 1 (Npn.negation_cost t)

let test_npn_identity () =
  let f = Tt.var ~vars:3 1 in
  let t = Npn.identity 3 in
  Alcotest.(check bool) "identity applies" true (Tt.equal f (Npn.apply f t));
  Alcotest.(check int) "zero cost" 0 (Npn.negation_cost t)

(* --- aig --- *)

let test_aig_simplifications () =
  let g = Aig.create () in
  let a = Aig.add_input g "a" in
  Alcotest.(check int) "x & 0" Aig.lit_false (Aig.and_ g a Aig.lit_false);
  Alcotest.(check int) "x & 1" a (Aig.and_ g a Aig.lit_true);
  Alcotest.(check int) "x & x" a (Aig.and_ g a a);
  Alcotest.(check int) "x & !x" Aig.lit_false (Aig.and_ g a (Aig.negate a));
  Alcotest.(check int) "no nodes created" 0 (Aig.num_ands g)

let test_aig_strash () =
  let g = Aig.create () in
  let a = Aig.add_input g "a" and b = Aig.add_input g "b" in
  let n1 = Aig.and_ g a b in
  let n2 = Aig.and_ g b a in
  Alcotest.(check int) "structural hashing" n1 n2;
  Alcotest.(check int) "one node" 1 (Aig.num_ands g)

let test_aig_eval_gates () =
  let g = Aig.create () in
  let a = Aig.add_input g "a" and b = Aig.add_input g "b" in
  Aig.add_output g "xor" (Aig.xor_ g a b);
  Aig.add_output g "or" (Aig.or_ g a b);
  Aig.add_output g "nand" (Aig.negate (Aig.and_ g a b));
  let cases = [ (false, false); (false, true); (true, false); (true, true) ] in
  List.iter
    (fun (x, y) ->
      let out = Aig.eval g [| x; y |] in
      Alcotest.(check bool) "xor" (x <> y) out.(0);
      Alcotest.(check bool) "or" (x || y) out.(1);
      Alcotest.(check bool) "nand" (not (x && y)) out.(2))
    cases

let test_aig_mux () =
  let g = Aig.create () in
  let a = Aig.add_input g "a" and b = Aig.add_input g "b" and s = Aig.add_input g "s" in
  Aig.add_output g "y" (Aig.mux_ g ~sel:s a b);
  for m = 0 to 7 do
    let x = m land 1 <> 0 and y = m land 2 <> 0 and sel = m land 4 <> 0 in
    let out = Aig.eval g [| x; y; sel |] in
    Alcotest.(check bool) "mux" (if sel then y else x) out.(0)
  done

let test_aig_eval64_matches_eval () =
  let g = Gap_datapath.Adders.ripple_adder 6 in
  let rng = Gap_util.Rng.create () in
  let n = Aig.num_inputs g in
  for _ = 1 to 50 do
    let ins = Array.init n (fun _ -> Gap_util.Rng.bool rng) in
    let packed = Array.map (fun b -> if b then -1L else 0L) ins in
    let o1 = Aig.eval g ins in
    let o64 = Aig.eval64 g packed in
    Array.iteri
      (fun i b ->
        Alcotest.(check bool) "bit-parallel agrees" b (Int64.logand o64.(i) 1L = 1L))
      o1
  done

let test_aig_depth_and_levels () =
  let g = Aig.create () in
  let a = Aig.add_input g "a" and b = Aig.add_input g "b" and c = Aig.add_input g "c" in
  let ab = Aig.and_ g a b in
  let abc = Aig.and_ g ab c in
  Aig.add_output g "y" abc;
  Alcotest.(check int) "depth 2" 2 (Aig.depth g);
  let lev = Aig.levels g in
  Alcotest.(check int) "input level" 0 lev.(Aig.id_of_lit a);
  Alcotest.(check int) "top level" 2 lev.(Aig.id_of_lit abc)

let test_aig_cone_of () =
  let g = Aig.create () in
  let a = Aig.add_input g "a" and b = Aig.add_input g "b" and c = Aig.add_input g "c" in
  let ab = Aig.and_ g a b in
  let bc = Aig.and_ g b c in
  let cone = Aig.cone_of g [ ab ] in
  Alcotest.(check int) "cone size" 1 (Array.length cone);
  Alcotest.(check int) "cone content" (Aig.id_of_lit ab) cone.(0);
  let cone2 = Aig.cone_of g [ ab; bc ] in
  Alcotest.(check int) "joint cone" 2 (Array.length cone2)

let test_aig_fanout_counts () =
  let g = Aig.create () in
  let a = Aig.add_input g "a" and b = Aig.add_input g "b" in
  let ab = Aig.and_ g a b in
  let x = Aig.and_ g ab a in
  Aig.add_output g "y" x;
  Aig.add_output g "z" ab;
  let f = Aig.fanout_counts g in
  Alcotest.(check int) "a used twice" 2 f.(Aig.id_of_lit a);
  Alcotest.(check int) "ab used twice (and + output)" 2 f.(Aig.id_of_lit ab)

let test_aig_equivalence_check () =
  (* xor built two ways *)
  let build f =
    let g = Aig.create () in
    let a = Aig.add_input g "a" and b = Aig.add_input g "b" in
    Aig.add_output g "y" (f g a b);
    g
  in
  let g1 = build (fun g a b -> Aig.xor_ g a b) in
  let g2 =
    build (fun g a b ->
        Aig.or_ g (Aig.and_ g a (Aig.negate b)) (Aig.and_ g (Aig.negate a) b))
  in
  let g3 = build (fun g a b -> Aig.or_ g a b) in
  let rng = Gap_util.Rng.create () in
  Alcotest.(check bool) "equivalent xors" true (Aig.equivalent_random g1 g2 rng);
  Alcotest.(check bool) "xor is not or" false (Aig.equivalent_random g1 g3 rng)

let suite =
  [
    ("tt var", `Quick, test_tt_var);
    ("tt ops", `Quick, test_tt_ops);
    QCheck_alcotest.to_alcotest de_morgan;
    QCheck_alcotest.to_alcotest shannon_expansion;
    ("tt depends/support", `Quick, test_tt_depends);
    QCheck_alcotest.to_alcotest permute_roundtrip;
    QCheck_alcotest.to_alcotest negate_involution;
    ("tt monotone/unate", `Quick, test_tt_monotone);
    ("tt expand", `Quick, test_tt_expand);
    ("tt count_ones", `Quick, test_tt_count_ones);
    ("npn permutation count", `Quick, test_npn_permutation_count);
    QCheck_alcotest.to_alcotest npn_canonical_invariant;
    QCheck_alcotest.to_alcotest npn_match_roundtrip;
    ("npn best match cost", `Quick, test_npn_best_match_cost);
    ("npn identity", `Quick, test_npn_identity);
    ("aig simplifications", `Quick, test_aig_simplifications);
    ("aig structural hashing", `Quick, test_aig_strash);
    ("aig gate eval", `Quick, test_aig_eval_gates);
    ("aig mux", `Quick, test_aig_mux);
    ("aig eval64 vs eval", `Quick, test_aig_eval64_matches_eval);
    ("aig depth/levels", `Quick, test_aig_depth_and_levels);
    ("aig cone_of", `Quick, test_aig_cone_of);
    ("aig fanout counts", `Quick, test_aig_fanout_counts);
    ("aig equivalence check", `Quick, test_aig_equivalence_check);
  ]
