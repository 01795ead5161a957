(* Tests for Gap_util: rng, stats, vec, heap, digraph, table, units. *)

module Rng = Gap_util.Rng
module Stats = Gap_util.Stats

let check_float = Alcotest.(check (float 1e-9))
let check_close msg tolerance expected actual = Alcotest.(check (float tolerance)) msg expected actual

(* --- rng --- *)

let test_rng_deterministic () =
  let a = Rng.create () and b = Rng.create () in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_changes_stream () =
  let a = Rng.create ~seed:1L () and b = Rng.create ~seed:2L () in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.int64 a) (Rng.int64 b) then incr same
  done;
  Alcotest.(check bool) "different streams" true (!same < 4)

let test_rng_int_bounds () =
  let rng = Rng.create () in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 7 in
    Alcotest.(check bool) "0 <= v < 7" true (v >= 0 && v < 7)
  done

let test_rng_int_in () =
  let rng = Rng.create () in
  let seen = Array.make 5 false in
  for _ = 1 to 1000 do
    let v = Rng.int_in rng 3 7 in
    Alcotest.(check bool) "3 <= v <= 7" true (v >= 3 && v <= 7);
    seen.(v - 3) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_rng_uniformity () =
  let rng = Rng.create () in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Rng.int rng 10 in
    buckets.(i) <- buckets.(i) + 1
  done;
  Array.iter
    (fun c ->
      check_close "bucket within 5% of uniform" 500. (float_of_int n /. 10.) (float_of_int c))
    buckets

let test_rng_normal_moments () =
  let rng = Rng.create () in
  let r = Stats.running () in
  for _ = 1 to 200_000 do
    Stats.add r (Rng.normal rng ~mean:3. ~sigma:2.)
  done;
  check_close "mean" 0.05 3.0 (Stats.mean r);
  check_close "stddev" 0.05 2.0 (Stats.stddev r)

let test_rng_float_range () =
  let rng = Rng.create () in
  for _ = 1 to 1000 do
    let v = Rng.float_in rng 2. 5. in
    Alcotest.(check bool) "in [2,5)" true (v >= 2. && v < 5.)
  done

let test_rng_shuffle_permutes () =
  let rng = Rng.create () in
  let a = Array.init 50 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_split_independent () =
  let parent = Rng.create () in
  let child = Rng.split parent in
  let a = Rng.int64 parent and b = Rng.int64 child in
  Alcotest.(check bool) "parent and child differ" true (not (Int64.equal a b))

(* --- stats --- *)

let test_stats_running_vs_direct () =
  let xs = [| 1.; 2.; 3.; 4.; 10. |] in
  let r = Stats.running () in
  Array.iter (Stats.add r) xs;
  check_float "mean" (Stats.mean_of xs) (Stats.mean r);
  check_float "stddev" (Stats.stddev_of xs) (Stats.stddev r);
  check_float "min" 1. (Stats.running_min r);
  check_float "max" 10. (Stats.running_max r);
  Alcotest.(check int) "count" 5 (Stats.count r)

let test_stats_percentile () =
  let xs = [| 5.; 1.; 3.; 2.; 4. |] in
  check_float "p0" 1. (Stats.percentile xs 0.);
  check_float "p100" 5. (Stats.percentile xs 100.);
  check_float "median" 3. (Stats.median xs);
  check_float "p25" 2. (Stats.percentile xs 25.);
  check_float "p50 interpolated" 2.5 (Stats.percentile [| 1.; 2.; 3.; 4. |] 50.)

let test_stats_histogram () =
  let xs = Array.init 100 (fun i -> float_of_int i) in
  let h = Stats.histogram ~bins:10 xs in
  Alcotest.(check int) "bin count" 10 (Array.length h);
  let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 h in
  Alcotest.(check int) "all samples bucketed" 100 total

let test_stats_correlation () =
  let xs = Array.init 50 (fun i -> float_of_int i) in
  let ys = Array.map (fun x -> (2. *. x) +. 1.) xs in
  check_close "perfect correlation" 1e-9 1.0 (Stats.correlation xs ys);
  let ys_neg = Array.map (fun x -> -.x) xs in
  check_close "anti correlation" 1e-9 (-1.0) (Stats.correlation xs ys_neg)

let test_stats_linear_fit () =
  let xs = Array.init 20 (fun i -> float_of_int i) in
  let ys = Array.map (fun x -> (3. *. x) -. 7. ) xs in
  let slope, intercept = Stats.linear_fit xs ys in
  check_close "slope" 1e-9 3. slope;
  check_close "intercept" 1e-9 (-7.) intercept

let test_stats_rejects_bad_input () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument msg ->
        (* the message names the offending function *)
        Alcotest.(check bool)
          (Printf.sprintf "%s names itself (got %S)" name msg)
          true
          (String.length msg >= String.length name
          && String.sub msg 0 (String.length name) = name)
    | _ -> Alcotest.failf "%s accepted bad input" name
  in
  expect_invalid "Gap_util.Stats.mean_of" (fun () -> Stats.mean_of [||]);
  expect_invalid "Gap_util.Stats.stddev_of" (fun () -> Stats.stddev_of [||]);
  expect_invalid "Gap_util.Stats.percentile_sorted" (fun () -> Stats.percentile [||] 50.);
  expect_invalid "Gap_util.Stats.percentile_sorted" (fun () -> Stats.percentile [| 1. |] 101.);
  expect_invalid "Gap_util.Stats.percentile_sorted" (fun () -> Stats.percentile [| 1. |] (-1.));
  expect_invalid "Gap_util.Stats.histogram" (fun () -> Stats.histogram ~bins:0 [| 1. |]);
  expect_invalid "Gap_util.Stats.histogram" (fun () -> Stats.histogram ~bins:4 [||]);
  expect_invalid "Gap_util.Stats.correlation" (fun () -> Stats.correlation [| 1.; 2. |] [| 1. |]);
  expect_invalid "Gap_util.Stats.correlation" (fun () -> Stats.correlation [| 1. |] [| 1. |]);
  expect_invalid "Gap_util.Stats.linear_fit" (fun () -> Stats.linear_fit [| 1. |] [| 1. |])

(* --- vec --- *)

let test_vec_basic () =
  let v = Gap_util.Vec.create () in
  Alcotest.(check bool) "empty" true (Gap_util.Vec.is_empty v);
  let ids = List.init 100 (fun i -> Gap_util.Vec.push v (i * 2)) in
  Alcotest.(check (list int)) "stable indices" (List.init 100 Fun.id) ids;
  Alcotest.(check int) "length" 100 (Gap_util.Vec.length v);
  Alcotest.(check int) "get" 84 (Gap_util.Vec.get v 42);
  Gap_util.Vec.set v 42 (-1);
  Alcotest.(check int) "set" (-1) (Gap_util.Vec.get v 42);
  Alcotest.(check int) "fold" ((99 * 100) - 84 - 1) (Gap_util.Vec.fold ( + ) 0 v)

let test_vec_bounds () =
  let v = Gap_util.Vec.of_array [| 1; 2; 3 |] in
  Alcotest.check_raises "oob get" (Invalid_argument "Vec: index out of bounds") (fun () ->
      ignore (Gap_util.Vec.get v 3))

let test_vec_find_index () =
  let v = Gap_util.Vec.of_array [| 1; 5; 9 |] in
  Alcotest.(check (option int)) "found" (Some 1) (Gap_util.Vec.find_index (fun x -> x = 5) v);
  Alcotest.(check (option int)) "missing" None (Gap_util.Vec.find_index (fun x -> x = 7) v)

let test_vec_capacity () =
  (* a pre-sized vec behaves exactly like a default one, before, at, and
     past the requested capacity *)
  let v = Gap_util.Vec.create ~capacity:1000 () in
  Alcotest.(check bool) "starts empty" true (Gap_util.Vec.is_empty v);
  for i = 0 to 1499 do
    ignore (Gap_util.Vec.push v (i * 3))
  done;
  Alcotest.(check int) "length" 1500 (Gap_util.Vec.length v);
  Alcotest.(check int) "first" 0 (Gap_util.Vec.get v 0);
  Alcotest.(check int) "at capacity edge" (999 * 3) (Gap_util.Vec.get v 999);
  Alcotest.(check int) "past capacity" (1499 * 3) (Gap_util.Vec.get v 1499);
  (* degenerate capacities are clamped, not fatal *)
  let w = Gap_util.Vec.create ~capacity:0 () in
  ignore (Gap_util.Vec.push w 42);
  Alcotest.(check int) "zero capacity still works" 42 (Gap_util.Vec.get w 0)

(* --- heap --- *)

let test_heap_sorts () =
  let h = Gap_util.Heap.of_array ~cmp:compare [| 5; 1; 4; 1; 3; 9; 2 |] in
  Alcotest.(check (list int)) "drain sorted" [ 1; 1; 2; 3; 4; 5; 9 ] (Gap_util.Heap.drain h)

let test_heap_peek_pop () =
  let h = Gap_util.Heap.create ~cmp:compare in
  Alcotest.(check (option int)) "empty peek" None (Gap_util.Heap.peek h);
  Gap_util.Heap.push h 3;
  Gap_util.Heap.push h 1;
  Alcotest.(check (option int)) "peek min" (Some 1) (Gap_util.Heap.peek h);
  Alcotest.(check (option int)) "pop min" (Some 1) (Gap_util.Heap.pop h);
  Alcotest.(check int) "length" 1 (Gap_util.Heap.length h)

let heap_property =
  QCheck.Test.make ~name:"heap drain is sorted" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Gap_util.Heap.of_array ~cmp:compare (Array.of_list xs) in
      let drained = Gap_util.Heap.drain h in
      drained = List.sort compare xs)

(* --- digraph --- *)

let diamond () =
  let g = Gap_util.Digraph.create () in
  Gap_util.Digraph.add_nodes g 4;
  Gap_util.Digraph.add_edge g 0 1;
  Gap_util.Digraph.add_edge g 0 2;
  Gap_util.Digraph.add_edge g 1 3;
  Gap_util.Digraph.add_edge g 2 3;
  g

let test_digraph_topo () =
  let g = diamond () in
  match Gap_util.Digraph.topo_order g with
  | None -> Alcotest.fail "diamond is acyclic"
  | Some order ->
      let pos = Array.make 4 0 in
      Array.iteri (fun i v -> pos.(v) <- i) order;
      Alcotest.(check bool) "edges go forward" true
        (pos.(0) < pos.(1) && pos.(0) < pos.(2) && pos.(1) < pos.(3) && pos.(2) < pos.(3))

let test_digraph_cycle () =
  let g = diamond () in
  Gap_util.Digraph.add_edge g 3 0;
  Alcotest.(check bool) "cyclic" false (Gap_util.Digraph.is_acyclic g)

let test_digraph_find_cycle () =
  Alcotest.(check bool) "diamond has no cycle" true
    (Gap_util.Digraph.find_cycle (diamond ()) = None);
  let g = diamond () in
  Gap_util.Digraph.add_edge g 3 1;
  match Gap_util.Digraph.find_cycle g with
  | None -> Alcotest.fail "cycle not found"
  | Some cycle ->
      (* the witness is a genuine closed walk: consecutive edges exist and the
         last node loops back to the first *)
      Alcotest.(check bool) "nonempty" true (cycle <> []);
      let arr = Array.of_list cycle in
      let n = Array.length arr in
      for k = 0 to n - 1 do
        let src = arr.(k) and dst = arr.((k + 1) mod n) in
        Alcotest.(check bool)
          (Printf.sprintf "edge %d -> %d exists" src dst)
          true
          (List.mem_assoc dst (Gap_util.Digraph.succ g src))
      done

let test_digraph_longest_path () =
  let g = Gap_util.Digraph.create () in
  Gap_util.Digraph.add_nodes g 3;
  Gap_util.Digraph.add_edge g 0 1;
  Gap_util.Digraph.add_edge g 1 2;
  Gap_util.Digraph.add_edge g 0 2;
  match Gap_util.Digraph.longest_path g ~node_delay:(fun _ -> 2.) with
  | None -> Alcotest.fail "acyclic"
  | Some arr ->
      check_float "source" 2. arr.(0);
      check_float "middle" 4. arr.(1);
      check_float "sink takes long way" 6. arr.(2)

let test_digraph_bellman_ford () =
  let g = Gap_util.Digraph.create () in
  Gap_util.Digraph.add_nodes g 3;
  Gap_util.Digraph.add_edge g ~weight:5. 0 1;
  Gap_util.Digraph.add_edge g ~weight:(-2.) 1 2;
  Gap_util.Digraph.add_edge g ~weight:10. 0 2;
  (match Gap_util.Digraph.bellman_ford g ~source:0 with
  | None -> Alcotest.fail "no negative cycle"
  | Some d ->
      check_float "shortest via middle" 3. d.(2);
      check_float "direct" 5. d.(1))

let test_digraph_negative_cycle () =
  let g = Gap_util.Digraph.create () in
  Gap_util.Digraph.add_nodes g 2;
  Gap_util.Digraph.add_edge g ~weight:(-1.) 0 1;
  Gap_util.Digraph.add_edge g ~weight:(-1.) 1 0;
  Alcotest.(check bool) "negative cycle detected" true
    (Gap_util.Digraph.bellman_ford g ~source:0 = None);
  Alcotest.(check bool) "infeasible potentials" true
    (Gap_util.Digraph.feasible_potentials g = None)

let test_digraph_feasible_potentials () =
  (* x1 - x0 <= 1, x0 - x1 <= 2 is satisfiable *)
  let g = Gap_util.Digraph.create () in
  Gap_util.Digraph.add_nodes g 2;
  Gap_util.Digraph.add_edge g ~weight:1. 0 1;
  Gap_util.Digraph.add_edge g ~weight:2. 1 0;
  match Gap_util.Digraph.feasible_potentials g with
  | None -> Alcotest.fail "satisfiable system"
  | Some x ->
      Alcotest.(check bool) "constraints hold" true
        (x.(1) -. x.(0) <= 1. +. 1e-9 && x.(0) -. x.(1) <= 2. +. 1e-9)

let test_digraph_scc () =
  let g = Gap_util.Digraph.create () in
  Gap_util.Digraph.add_nodes g 5;
  (* cycle 0-1-2, then 3 -> 4 *)
  Gap_util.Digraph.add_edge g 0 1;
  Gap_util.Digraph.add_edge g 1 2;
  Gap_util.Digraph.add_edge g 2 0;
  Gap_util.Digraph.add_edge g 2 3;
  Gap_util.Digraph.add_edge g 3 4;
  let comp = Gap_util.Digraph.scc g in
  Alcotest.(check bool) "cycle in one component" true
    (comp.(0) = comp.(1) && comp.(1) = comp.(2));
  Alcotest.(check bool) "others separate" true (comp.(3) <> comp.(0) && comp.(4) <> comp.(3))

let csr_matches_reference_property =
  (* the CSR-backed topo_order/longest_path must agree exactly — including
     Kahn tie-breaking, hence array equality — with the list-based reference
     implementations, on DAGs and on cyclic graphs (both reject) *)
  QCheck.Test.make ~name:"digraph csr matches list reference" ~count:200
    QCheck.(triple (int_range 1 30) (small_list (pair small_nat small_nat)) bool)
    (fun (n, pairs, acyclic_only) ->
      let g = Gap_util.Digraph.create () in
      Gap_util.Digraph.add_nodes g n;
      List.iter
        (fun (a, b) ->
          let u = a mod n and v = b mod n in
          if u < v || ((not acyclic_only) && u <> v) then
            Gap_util.Digraph.add_edge g ~weight:(float_of_int ((a + b) mod 7)) u v)
        pairs;
      let node_delay i = float_of_int ((i mod 5) + 1) in
      Gap_util.Digraph.topo_order g = Gap_util.Digraph.topo_order_ref g
      && Gap_util.Digraph.longest_path g ~node_delay
         = Gap_util.Digraph.longest_path_ref g ~node_delay)

(* --- table / units --- *)

let test_table_render () =
  let s = Gap_util.Table.render ~header:[ "a"; "b" ] [ [ "x"; "12" ]; [ "yy"; "3" ] ] in
  let contains sub =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "x present" true (contains "x");
  Alcotest.(check bool) "12 present" true (contains "12");
  Alcotest.(check bool) "header present" true (contains "| a");
  Alcotest.(check string) "ratio fmt" "x3.85" (Gap_util.Table.fmt_ratio 3.85);
  Alcotest.(check string) "pct fmt" "25.0%" (Gap_util.Table.fmt_pct 0.25)

let test_table_to_csv () =
  let csv =
    Gap_util.Table.to_csv ~header:[ "name"; "value" ]
      [ [ "plain"; "1" ]; [ "com,ma"; "quo\"te" ]; [ "line\nbreak"; "" ] ]
  in
  Alcotest.(check string)
    "quoted, doubled, newline preserved"
    "\"name\",\"value\"\n\"plain\",\"1\"\n\"com,ma\",\"quo\"\"te\"\n\"line\nbreak\",\"\"\n"
    csv;
  Alcotest.(check string) "no header, no rows" "" (Gap_util.Table.to_csv [])

(* --- crc32 --- *)

module Crc32 = Gap_util.Crc32

let test_crc32_reference_vectors () =
  (* zlib/PNG convention known-answer vectors *)
  Alcotest.(check int) "empty" 0 (Crc32.string "");
  Alcotest.(check int) "check value" 0xCBF43926 (Crc32.string "123456789");
  Alcotest.(check int) "single a" 0xE8B7BE43 (Crc32.string "a");
  Alcotest.(check int) "abc" 0x352441C2 (Crc32.string "abc");
  Alcotest.(check int) "quick brown fox" 0x414FA339
    (Crc32.string "The quick brown fox jumps over the lazy dog")

let test_crc32_incremental_matches_whole () =
  let s = "123456789" in
  let split = Crc32.update (Crc32.update 0 s ~pos:0 ~len:4) s ~pos:4 ~len:5 in
  Alcotest.(check int) "split update = whole" (Crc32.string s) split;
  let b = Bytes.of_string ("xx" ^ s ^ "yy") in
  Alcotest.(check int) "bytes slice = string" (Crc32.string s)
    (Crc32.bytes b ~pos:2 ~len:9);
  Alcotest.check_raises "bad range raises"
    (Invalid_argument "Crc32.update") (fun () ->
      ignore (Crc32.bytes b ~pos:10 ~len:100))

let crc32_detects_single_bit_flips_property =
  QCheck.Test.make ~name:"crc32 detects any single bit flip" ~count:200
    QCheck.(pair (string_of_size (QCheck.Gen.int_range 1 64)) (pair small_nat small_nat))
    (fun (s, (byte_seed, bit)) ->
      let b = Bytes.of_string s in
      let i = byte_seed mod Bytes.length b in
      Bytes.set b i
        (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl (bit mod 8))));
      Crc32.string (Bytes.to_string b) <> Crc32.string s)

(* --- hash: FNV-1a 64 --- *)

module Hash = Gap_util.Hash

let test_hash_reference_vectors () =
  (* published FNV-1a 64-bit vectors *)
  Alcotest.(check int64) "empty = offset basis" 0xcbf29ce484222325L (Hash.of_string "");
  Alcotest.(check int64) "a" 0xaf63dc4c8601ec8cL (Hash.of_string "a");
  Alcotest.(check int64) "foobar" 0x85944171f73967e8L (Hash.of_string "foobar");
  Alcotest.(check string) "hex rendering" "cbf29ce484222325" (Hash.to_hex Hash.seed)

let test_hash_combinators () =
  let h1 = Hash.(string (string seed "ab") "c") in
  let h2 = Hash.(string (string seed "a") "bc") in
  Alcotest.(check bool) "field boundaries matter" true (h1 <> h2);
  Alcotest.(check int64) "int = int64 of same value"
    Hash.(int seed 42) Hash.(int64 seed 42L);
  Alcotest.(check int64) "negative zero canonicalized"
    Hash.(float seed 0.) Hash.(float seed (-0.));
  Alcotest.(check int64) "nan canonicalized"
    Hash.(float seed Float.nan) Hash.(float seed (0. /. 0.));
  Alcotest.(check bool) "bool arms differ" true
    Hash.(bool seed true <> bool seed false);
  Alcotest.(check bool) "order sensitive" true
    Hash.(int (int seed 1) 2 <> int (int seed 2) 1)

let hash_field_split_property =
  QCheck.Test.make ~name:"hash distinguishes field splits" ~count:300
    QCheck.(quad small_string small_string small_string small_string)
    (fun (a, b, a', b') ->
      QCheck.assume ((a, b) <> (a', b'));
      Hash.(string (string seed a) b) <> Hash.(string (string seed a') b'))

let hash_stability_property =
  QCheck.Test.make ~name:"hash is a pure function of the byte sequence" ~count:200
    QCheck.(small_list small_string)
    (fun fields ->
      let fold () = List.fold_left Hash.string Hash.seed fields in
      Int64.equal (fold ()) (fold ()))

(* --- unboxed sample buffers / batched rng --- *)

let test_buf_roundtrip_and_aggregates () =
  let xs = [| 5.; 1.; 3.; 2.; 4. |] in
  let b = Stats.buf_of_array xs in
  Alcotest.(check int) "length" 5 (Stats.buf_length b);
  Alcotest.(check (array (float 0.))) "roundtrip" xs (Stats.buf_to_array b);
  check_float "mean" (Stats.mean_of xs) (Stats.buf_mean b);
  check_float "min" 1. (Stats.buf_min b);
  check_float "max" 5. (Stats.buf_max b);
  Alcotest.(check int) "count_ge" 3 (Stats.buf_count_ge b 3.);
  Alcotest.(check int) "count_ge none" 0 (Stats.buf_count_ge b 6.);
  (* the copy is independent: selecting on it leaves the original alone *)
  let c = Stats.buf_copy b in
  ignore (Stats.buf_select c 0);
  Alcotest.(check (array (float 0.))) "original untouched" xs (Stats.buf_to_array b)

let test_buf_select_edges () =
  let b = Stats.buf_of_array [| 5.; 1.; 3.; 2.; 4. |] in
  check_float "k=0 is min" 1. (Stats.buf_select b 0);
  check_float "k=4 is max" 5. (Stats.buf_select b 4);
  check_float "k=2 is median" 3. (Stats.buf_select b 2);
  let d = Stats.buf_of_array [| 2.; 2.; 1.; 2. |] in
  check_float "duplicates" 2. (Stats.buf_select d 2);
  check_float "singleton" 7. (Stats.buf_select (Stats.buf_of_array [| 7. |]) 0);
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted bad input" name
  in
  expect_invalid "empty buffer" (fun () -> Stats.buf_select (Stats.buf_create 0) 0);
  expect_invalid "rank too high" (fun () -> Stats.buf_select (Stats.buf_of_array [| 1. |]) 1);
  expect_invalid "negative rank" (fun () -> Stats.buf_select (Stats.buf_of_array [| 1. |]) (-1));
  expect_invalid "nan poisons selection" (fun () ->
      ignore (Stats.buf_select (Stats.buf_of_array (Array.make 8 Float.nan)) 4));
  expect_invalid "percentile out of range" (fun () ->
      Stats.buf_percentile (Stats.buf_of_array [| 1. |]) 101.)

let buf_percentile_matches_sort_property =
  (* streaming (quickselect) percentiles and single-pass aggregates must
     agree bit for bit with the sort-based reference path, repeated-query
     reordering included *)
  QCheck.Test.make ~name:"buf percentile/mean match sorted reference" ~count:300
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 80) (float_range (-1e6) 1e6))
        (small_list (int_bound 100)))
    (fun (xs, ps) ->
      let arr = Array.of_list xs in
      let b = Stats.buf_of_array arr in
      let sorted = Array.copy arr in
      Array.sort Float.compare sorted;
      Stats.buf_mean b = Stats.mean_of arr
      && Stats.buf_min b = Stats.minimum arr
      && Stats.buf_max b = Stats.maximum arr
      && List.for_all
           (fun pi ->
             let p = float_of_int pi in
             Stats.buf_percentile b p = Stats.percentile_sorted sorted p)
           (0 :: 50 :: 100 :: ps))

(* Buffers up to 70,000 samples, of the shapes that stress selection:
   uniform, duplicate-heavy (signed zeros and infinities included),
   constant, sorted and reversed. Built from a seed so a failure prints
   small. *)
type buf_shape = Uniform | Duplicates | Constant | Sorted | Reversed

let shape_name = function
  | Uniform -> "uniform"
  | Duplicates -> "duplicates"
  | Constant -> "constant"
  | Sorted -> "sorted"
  | Reversed -> "reversed"

let sample_array (n, shape, seed) =
  let st = Random.State.make [| seed |] in
  let draw () = Random.State.float st 2e6 -. 1e6 in
  let few = [| neg_infinity; -1.; -0.; 0.; 0.5; 2.; infinity |] in
  let sorted () =
    let a = Array.init n (fun _ -> draw ()) in
    Array.sort Float.compare a;
    a
  in
  match shape with
  | Uniform -> Array.init n (fun _ -> draw ())
  | Duplicates -> Array.init n (fun _ -> few.(Random.State.int st (Array.length few)))
  | Constant -> Array.make n (draw ())
  | Sorted -> sorted ()
  | Reversed ->
      let a = sorted () in
      Array.init n (fun i -> a.(n - 1 - i))

(* every rank of a small buffer; of a large one, the ranks on both sides
   of each tail cutoff (n/32 from an end), the middle and the ends *)
let probe_ranks n =
  let tail = n / 32 in
  if n <= 80 then List.init n Fun.id
  else
    List.sort_uniq compare
      (List.filter
         (fun k -> k >= 0 && k < n)
         [ 0; 1; tail - 2; tail - 1; tail; tail + 1; n / 2; n - tail - 2;
           n - tail - 1; n - tail; n - tail + 1; n - 2; n - 1 ])

let buf_order_stats_property =
  let gen =
    QCheck.Gen.(
      triple
        (frequency
           [ (3, int_range 1 100); (3, int_range 100 5_000); (2, int_range 5_000 70_000) ])
        (oneofl [ Uniform; Duplicates; Constant; Sorted; Reversed ])
        (int_bound 1_000_000))
  in
  QCheck.Test.make ~name:"buf select/percentile = sorted copy, buffer untouched"
    ~count:150
    (QCheck.make
       ~print:(fun (n, shape, seed) ->
         Printf.sprintf "n=%d %s seed=%d" n (shape_name shape) seed)
       gen)
    (fun spec ->
      let arr = sample_array spec in
      let n = Array.length arr in
      let b = Stats.buf_of_array arr in
      let sorted = Array.copy arr in
      Array.sort Float.compare sorted;
      let ranks = probe_ranks n in
      (* percentiles landing on each probed rank and halfway past it *)
      let ps =
        0. :: 1. :: 50. :: 99. :: 100.
        :: List.concat_map
             (fun k ->
               let step = 100. /. float_of_int (max 1 (n - 1)) in
               [ float_of_int k *. step; (float_of_int k +. 0.5) *. step ])
             ranks
        |> List.filter (fun p -> p <= 100.)
      in
      let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
      List.for_all (fun k -> Float.equal (Stats.buf_select b k) sorted.(k)) ranks
      && List.for_all
           (fun p -> same (Stats.buf_percentile b p) (Stats.percentile_sorted sorted p))
           ps
      && Array.for_all2 same (Stats.buf_to_array b) arr)

(* One NaN anywhere makes every selection path raise: each index of small
   buffers on both sides of the tail cutoff, random indices of large ones;
   p0/p1 and p99/p100 take the heap pass (from 32 samples on), p50 the
   copy and quickselect. *)
let test_buf_nan_rejected () =
  let rejects what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | v -> Alcotest.failf "%s: NaN accepted, returned %g" what v
  in
  let queries where b =
    let n = Stats.buf_length b in
    List.iter
      (fun p ->
        rejects (Printf.sprintf "%s, p%g" where p) (fun () -> Stats.buf_percentile b p))
      [ 0.; 1.; 50.; 99.; 100. ];
    List.iter
      (fun k ->
        rejects (Printf.sprintf "%s, rank %d" where k) (fun () -> Stats.buf_select b k))
      [ 0; n / 2; n - 1 ]
  in
  List.iter
    (fun n ->
      for i = 0 to n - 1 do
        List.iter
          (fun nan ->
            let a = Array.init n (fun j -> float_of_int ((j * 7919) mod n)) in
            a.(i) <- nan;
            queries (Printf.sprintf "n=%d, NaN at %d" n i) (Stats.buf_of_array a))
          [ Float.nan; -.Float.nan ]
      done)
    [ 1; 2; 5; 31; 32; 33; 64; 100 ];
  let st = Random.State.make [| 24 |] in
  for _ = 1 to 40 do
    let n = 20_000 in
    let a = Array.init n (fun _ -> 200. +. Random.State.float st 100.) in
    let i = Random.State.int st n in
    a.(i) <- Float.nan;
    queries (Printf.sprintf "n=%d, NaN at %d" n i) (Stats.buf_of_array a)
  done

let normal_fill_matches_scalar_property =
  (* the batched fill must replay the exact scalar [normal] stream bit for
     bit across consecutive fills of assorted lengths — even, odd (leaving
     a cached spare), and zero — at arbitrary buffer offsets *)
  QCheck.Test.make ~name:"batched normal fill matches scalar draws" ~count:100
    QCheck.(pair small_nat (list_of_size Gen.(1 -- 6) (int_bound 33)))
    (fun (seed, lens) ->
      let a = Rng.create ~seed:(Int64.of_int seed) () in
      let b = Rng.create ~seed:(Int64.of_int seed) () in
      List.for_all
        (fun len ->
          let buf = Array.make (len + 2) 42.0 in
          Rng.normal_std_fill a buf ~pos:1 ~len;
          let ok = ref (buf.(0) = 42.0 && buf.(len + 1) = 42.0) in
          for i = 1 to len do
            if buf.(i) <> Rng.normal b ~mean:0. ~sigma:1. then ok := false
          done;
          !ok)
        lens)

let test_normal_fill_rejects_bad_range () =
  let rng = Rng.create () in
  let buf = Array.make 4 0. in
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s accepted bad range" name
  in
  expect_invalid "negative pos" (fun () -> Rng.normal_std_fill rng buf ~pos:(-1) ~len:2);
  expect_invalid "negative len" (fun () -> Rng.normal_std_fill rng buf ~pos:0 ~len:(-1));
  expect_invalid "past end" (fun () -> Rng.normal_std_fill rng buf ~pos:2 ~len:3)

let test_units () =
  check_float "ps<->ns" 1500. (Gap_util.Units.ps_of_ns 1.5);
  check_float "mhz of period" 1000. (Gap_util.Units.mhz_of_period_ps 1000.);
  check_float "roundtrip" 250. (Gap_util.Units.mhz_of_period_ps (Gap_util.Units.period_ps_of_mhz 250.));
  Alcotest.(check string) "freq fmt" "1.00 GHz" (Gap_util.Units.pp_freq_mhz 1000.);
  Alcotest.(check string) "time fmt" "4.20 ns" (Gap_util.Units.pp_time_ps 4200.)

let suite =
  [
    ("rng deterministic", `Quick, test_rng_deterministic);
    ("rng seed changes stream", `Quick, test_rng_seed_changes_stream);
    ("rng int bounds", `Quick, test_rng_int_bounds);
    ("rng int_in", `Quick, test_rng_int_in);
    ("rng uniformity", `Quick, test_rng_uniformity);
    ("rng normal moments", `Quick, test_rng_normal_moments);
    ("rng float range", `Quick, test_rng_float_range);
    ("rng shuffle permutes", `Quick, test_rng_shuffle_permutes);
    ("rng split independent", `Quick, test_rng_split_independent);
    ("stats running vs direct", `Quick, test_stats_running_vs_direct);
    ("stats percentile", `Quick, test_stats_percentile);
    ("stats histogram", `Quick, test_stats_histogram);
    ("stats correlation", `Quick, test_stats_correlation);
    ("stats linear fit", `Quick, test_stats_linear_fit);
    ("stats rejects bad input", `Quick, test_stats_rejects_bad_input);
    ("vec basics", `Quick, test_vec_basic);
    ("vec bounds", `Quick, test_vec_bounds);
    ("vec find_index", `Quick, test_vec_find_index);
    ("vec capacity", `Quick, test_vec_capacity);
    ("heap sorts", `Quick, test_heap_sorts);
    ("heap peek/pop", `Quick, test_heap_peek_pop);
    QCheck_alcotest.to_alcotest heap_property;
    ("digraph topo", `Quick, test_digraph_topo);
    ("digraph cycle", `Quick, test_digraph_cycle);
    ("digraph find_cycle witness", `Quick, test_digraph_find_cycle);
    ("digraph longest path", `Quick, test_digraph_longest_path);
    ("digraph bellman-ford", `Quick, test_digraph_bellman_ford);
    ("digraph negative cycle", `Quick, test_digraph_negative_cycle);
    ("digraph feasible potentials", `Quick, test_digraph_feasible_potentials);
    ("digraph scc", `Quick, test_digraph_scc);
    QCheck_alcotest.to_alcotest csr_matches_reference_property;
    ("table render", `Quick, test_table_render);
    ("table to_csv", `Quick, test_table_to_csv);
    ("crc32 reference vectors", `Quick, test_crc32_reference_vectors);
    ("crc32 incremental", `Quick, test_crc32_incremental_matches_whole);
    QCheck_alcotest.to_alcotest crc32_detects_single_bit_flips_property;
    ("hash reference vectors", `Quick, test_hash_reference_vectors);
    ("hash combinators", `Quick, test_hash_combinators);
    QCheck_alcotest.to_alcotest hash_field_split_property;
    QCheck_alcotest.to_alcotest hash_stability_property;
    ("buf roundtrip and aggregates", `Quick, test_buf_roundtrip_and_aggregates);
    ("buf select edges", `Quick, test_buf_select_edges);
    QCheck_alcotest.to_alcotest buf_percentile_matches_sort_property;
    QCheck_alcotest.to_alcotest buf_order_stats_property;
    ("buf NaN anywhere rejected", `Quick, test_buf_nan_rejected);
    QCheck_alcotest.to_alcotest normal_fill_matches_scalar_property;
    ("normal fill rejects bad range", `Quick, test_normal_fill_rejects_bad_range);
    ("units", `Quick, test_units);
  ]
