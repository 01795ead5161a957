(* Integration tests: every reproduced claim must fall in the paper's stated
   range. Heavy experiments (synthesis sweeps) are marked `Slow but run by
   default under alcotest. *)

module Exp = Gap_experiments.Exp
module Registry = Gap_experiments.Registry

let assert_all_pass (r : Exp.result) =
  List.iter
    (fun (row : Exp.row) ->
      match row.Exp.verdict with
      | Exp.Pass | Exp.Info -> ()
      | Exp.Near why -> Alcotest.failf "%s: %s — %s" r.Exp.id row.Exp.label why)
    r.Exp.rows

let experiment_case (id, title, run) =
  let speed =
    (* the synthesis-heavy ones *)
    if List.mem id [ "E2"; "E3"; "E7"; "E8"; "E10"; "X1"; "X3"; "X4"; "X5"; "X7"; "X8" ] then `Slow else `Quick
  in
  ( Printf.sprintf "%s: %s all rows in range" id title,
    speed,
    fun () ->
      let r = run () in
      Alcotest.(check bool) "has rows" true (r.Exp.rows <> []);
      assert_all_pass r )

let test_registry_complete () =
  Alcotest.(check int) "eleven experiments" 11 (List.length Registry.all);
  Alcotest.(check int) "eight extensions" 8 (List.length Registry.extensions);
  List.iteri
    (fun i (id, _, _) ->
      Alcotest.(check string) "ids in order" (Printf.sprintf "E%d" (i + 1)) id)
    Registry.all

let test_find () =
  Alcotest.(check bool) "finds e3 case-insensitively" true (Registry.find "e3" <> None);
  Alcotest.(check bool) "finds extensions" true (Registry.find "x2" <> None);
  Alcotest.(check bool) "unknown id" true (Registry.find "E42" = None)

let test_render_contains_verdicts () =
  let r = Gap_experiments.E1_processors.run () in
  let s = Exp.render r in
  let contains sub =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "has header" true (contains "E1");
  Alcotest.(check bool) "has verdict column" true (contains "verdict")

let test_passes_counter () =
  let r = Gap_experiments.E1_processors.run () in
  let p, c = Exp.passes r in
  Alcotest.(check bool) "checkable rows exist" true (c > 0);
  Alcotest.(check bool) "passes bounded" true (p <= c)

let test_csv_export () =
  let r = Gap_experiments.E1_processors.run () in
  let csv = Exp.to_csv r in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "one line per row" (List.length r.Exp.rows) (List.length lines);
  List.iter
    (fun line ->
      let commas = String.fold_left (fun acc c -> if c = ',' then acc + 1 else acc) 0 line in
      Alcotest.(check bool) "five fields" true (commas >= 4))
    lines

let test_check_helper () =
  Alcotest.(check bool) "inside" true (Exp.check 1.5 ~lo:1. ~hi:2. = Exp.Pass);
  Alcotest.(check bool) "outside" true
    (match Exp.check 5. ~lo:1. ~hi:2. with Exp.Near _ -> true | _ -> false)

let suite =
  [
    ("registry complete", `Quick, test_registry_complete);
    ("registry find", `Quick, test_find);
    ("render", `Quick, test_render_contains_verdicts);
    ("passes counter", `Quick, test_passes_counter);
    ("check helper", `Quick, test_check_helper);
    ("csv export", `Quick, test_csv_export);
  ]
  @ List.map experiment_case Registry.all
  @ List.map experiment_case Registry.extensions
