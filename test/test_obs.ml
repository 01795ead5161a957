(* Gap_obs: spans nest and aggregate, counters add, histogram buckets land
   where the bounds say, JSONL traces parse and round-trip, and — the one
   that matters for science — enabling telemetry does not change any
   experiment's numbers. *)

module Obs = Gap_obs.Obs
module Json = Gap_obs.Json
module Exp = Gap_experiments.Exp
module Registry = Gap_experiments.Registry

let with_temp_file f =
  let path = Filename.temp_file "gap_obs_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* --- spans --- *)

let test_span_nesting () =
  let sink = Obs.recorder () in
  Obs.with_sink sink (fun () ->
      Obs.span "outer" (fun () ->
          Obs.span "mid" (fun () -> Obs.span "leaf" (fun () -> ()));
          Obs.span "mid" (fun () -> ()));
      Obs.span "outer" (fun () -> ()));
  let spans = Obs.spans sink in
  let paths = List.map (fun (s : Obs.span_stats) -> s.path) spans in
  Alcotest.(check (list string))
    "first-open order" [ "outer"; "outer/mid"; "outer/mid/leaf" ] paths;
  let by_path p = List.find (fun (s : Obs.span_stats) -> s.path = p) spans in
  Alcotest.(check int) "outer calls" 2 (by_path "outer").calls;
  Alcotest.(check int) "mid calls" 2 (by_path "outer/mid").calls;
  Alcotest.(check int) "leaf calls" 1 (by_path "outer/mid/leaf").calls;
  Alcotest.(check int) "outer depth" 0 (by_path "outer").depth;
  Alcotest.(check int) "mid depth" 1 (by_path "outer/mid").depth;
  Alcotest.(check int) "leaf depth" 2 (by_path "outer/mid/leaf").depth;
  List.iter
    (fun (s : Obs.span_stats) ->
      Alcotest.(check bool)
        (s.path ^ " total covers calls") true
        (s.total_ns >= 0. && s.min_ns <= s.max_ns && s.max_ns <= s.total_ns))
    spans

let test_span_exception_safe () =
  let sink = Obs.recorder () in
  (try
     Obs.with_sink sink (fun () ->
         Obs.span "boom" (fun () -> failwith "expected"))
   with Failure _ -> ());
  match Obs.spans sink with
  | [ s ] ->
      Alcotest.(check string) "span closed" "boom" s.Obs.path;
      Alcotest.(check int) "counted" 1 s.Obs.calls
  | l -> Alcotest.failf "expected one span, got %d" (List.length l)

let test_exp_tagging () =
  let sink = Obs.recorder () in
  Obs.with_sink sink (fun () ->
      Obs.with_exp "E6" (fun () -> Obs.span "work" (fun () -> ())));
  match Obs.spans sink with
  | [ s ] -> Alcotest.(check string) "tagged" "E6" s.Obs.exp
  | _ -> Alcotest.fail "expected one span"

(* --- counters / gauges --- *)

let test_counter_arithmetic () =
  let sink = Obs.recorder () in
  Obs.with_sink sink (fun () ->
      Obs.incr "a";
      Obs.incr ~by:10 "a";
      Obs.incr ~by:(-3) "a";
      Obs.incr "b");
  Alcotest.(check int) "a sums" 8 (Obs.counter_value sink "a");
  Alcotest.(check int) "b" 1 (Obs.counter_value sink "b");
  Alcotest.(check int) "missing is 0" 0 (Obs.counter_value sink "nope");
  Alcotest.(check (list string))
    "declaration order" [ "a"; "b" ]
    (List.map fst (Obs.counters sink))

let test_gauge_last_write_wins () =
  let sink = Obs.recorder () in
  Obs.with_sink sink (fun () ->
      Obs.gauge "hpwl" 100.;
      Obs.gauge "hpwl" 42.5);
  match Obs.gauge_value sink "hpwl" with
  | Some v -> Alcotest.(check (float 1e-9)) "last value" 42.5 v
  | None -> Alcotest.fail "gauge missing"

(* --- histograms --- *)

let test_histogram_buckets () =
  let sink = Obs.recorder () in
  let bounds = [| 1.; 2.; 5. |] in
  Obs.with_sink sink (fun () ->
      List.iter
        (Obs.observe ~bounds "h")
        [ 0.5; 1.0; 1.5; 2.0; 3.0; 5.0; 7.0 ]);
  match Obs.histogram_stats sink "h" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      (* counts.(i) holds bounds.(i-1) < v <= bounds.(i); last is overflow *)
      Alcotest.(check (array int)) "bucket counts" [| 2; 2; 2; 1 |] h.Obs.counts;
      Alcotest.(check int) "n" 7 h.Obs.n;
      Alcotest.(check (float 1e-9)) "min" 0.5 h.Obs.min_v;
      Alcotest.(check (float 1e-9)) "max" 7.0 h.Obs.max_v;
      Alcotest.(check (float 1e-9)) "sum" 20.0 h.Obs.sum

let test_histogram_default_bounds () =
  let sink = Obs.recorder () in
  Obs.with_sink sink (fun () -> Obs.observe "d" 123.);
  match Obs.histogram_stats sink "d" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      Alcotest.(check int) "n" 1 h.Obs.n;
      Alcotest.(check int) "one bucket hit" 1
        (Array.fold_left ( + ) 0 h.Obs.counts)

(* --- noop sink --- *)

let test_noop_records_nothing () =
  Obs.with_sink Obs.null (fun () ->
      Obs.span "s" (fun () -> Obs.incr "c");
      Obs.observe "h" 1.;
      Obs.event "e" []);
  Alcotest.(check bool) "disabled" false (Obs.enabled ());
  Alcotest.(check int) "no spans" 0 (List.length (Obs.spans Obs.null));
  Alcotest.(check string) "empty summary" "" (Obs.summary Obs.null)

(* --- JSON --- *)

let test_json_roundtrip () =
  let open Json in
  let v =
    Obj
      [
        ("null", Null);
        ("t", Bool true);
        ("i", Int (-42));
        ("f", Float 3.25);
        ("whole", Float 7.);
        ("s", Str "a\"b\\c\nd\te\r \x01 é");
        ("l", List [ Int 1; Str "two"; Obj [ ("k", Bool false) ] ]);
        ("empty_l", List []);
        ("empty_o", Obj []);
      ]
  in
  (match of_string (to_string v) with
  | Ok v' -> Alcotest.(check bool) "compact round-trips" true (v = v')
  | Error e -> Alcotest.failf "parse failed: %s" e);
  match of_string (to_string ~pretty:true v) with
  | Ok v' -> Alcotest.(check bool) "pretty round-trips" true (v = v')
  | Error e -> Alcotest.failf "pretty parse failed: %s" e

let test_json_parser_strict () =
  let bad s =
    match Json.of_string s with
    | Ok _ -> Alcotest.failf "accepted invalid JSON: %s" s
    | Error _ -> ()
  in
  bad "";
  bad "{";
  bad "[1,]";
  bad "{\"a\":1} trailing";
  bad "'single'";
  bad "nul";
  (match Json.of_string "{\"a\": [1, 2.5, \"\\u00e9\"]}" with
  | Ok (Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Float 2.5; Json.Str "é" ]) ]) -> ()
  | Ok _ -> Alcotest.fail "parsed to unexpected shape"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  Alcotest.(check bool)
    "member" true
    (Json.member "a" (Json.Obj [ ("a", Json.Int 1) ]) = Some (Json.Int 1));
  Alcotest.(check bool)
    "nan renders null" true
    (Json.to_string (Json.Float Float.nan) = "null")

(* --- JSON properties --- *)

(* arbitrary NaN-free values: the renderer/parser pair must round-trip
   every one of them, not just the shapes the flow happens to emit *)
let json_gen =
  let open QCheck.Gen in
  let finite_float =
    map
      (fun f -> if Float.is_finite f then f else 0.)
      (oneof [ float; map float_of_int int; return 0.; return (-0.) ])
  in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun f -> Json.Float f) finite_float;
        map (fun s -> Json.Str s) (string_size (0 -- 12));
      ]
  in
  sized
    (fix (fun self n ->
         if n <= 0 then scalar
         else
           frequency
             [
               (3, scalar);
               (1, map (fun l -> Json.List l) (list_size (0 -- 4) (self (n / 2))));
               ( 1,
                 map
                   (fun kvs -> Json.Obj kvs)
                   (list_size (0 -- 4)
                      (pair (string_size (0 -- 6)) (self (n / 2)))) );
             ]))

let json_roundtrip_property =
  QCheck.Test.make ~name:"json of_string (to_string v) = Ok v" ~count:500
    (QCheck.make ~print:(fun v -> Json.to_string v) json_gen)
    (fun v ->
      Json.of_string (Json.to_string v) = Ok v
      && Json.of_string (Json.to_string ~pretty:true v) = Ok v)

let rendered_obj_property =
  QCheck.Test.make ~name:"rendered_obj of rendered fields = to_string" ~count:500
    (QCheck.make
       ~print:(fun kvs -> Json.to_string (Json.Obj kvs))
       QCheck.Gen.(list_size (0 -- 5) (pair (string_size (0 -- 6)) json_gen)))
    (fun kvs ->
      String.equal
        (Json.rendered_obj (List.map (fun (k, v) -> (k, Json.to_string v)) kvs))
        (Json.to_string (Json.Obj kvs)))

let float_repr_stability_property =
  QCheck.Test.make ~name:"float_repr is shortest-form stable" ~count:1000
    QCheck.(map (fun f -> if Float.is_finite f then f else 1.5) float)
    (fun f ->
      let r = Json.float_repr f in
      (* reads back to the same float, and re-rendering the read-back value
         reproduces the representation exactly (no drift) *)
      float_of_string r = f && Json.float_repr (float_of_string r) = r)

(* [float_repr] as it read when it formatted through [Printf]: the bytes
   the primitive call must reproduce exactly *)
let float_repr_printf x =
  if not (Float.is_finite x) then "null"
  else
    let s = Printf.sprintf "%.12g" x in
    let s = if float_of_string s = x then s else Printf.sprintf "%.17g" x in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"

let float_repr_edge_cases =
  [
    0.; -0.;
    (* subnormals: the smallest, the largest, one in between *)
    5e-324; -5e-324; 2.2250738585072009e-308; 1e-310;
    Float.max_float; -.Float.max_float; Float.min_float; -.Float.min_float;
    Float.epsilon;
    (* integral values, which take the ".0" suffix until %g switches to an
       exponent *)
    1.; -1.; 42.; 1e11; 123456789012.; 1e15; 4503599627370496.; 1e21; 1e22;
    0.1; 0.5; 36.; 44.;
    (* values that need all 17 digits *)
    0.1 +. 0.2; 1. /. 3.; Float.pi; 1. +. Float.epsilon; 4.35;
    Float.nan; Float.infinity; Float.neg_infinity;
  ]

let test_float_repr_edge_cases () =
  List.iter
    (fun x ->
      Alcotest.(check string)
        (Printf.sprintf "float_repr %h" x)
        (float_repr_printf x) (Json.float_repr x))
    float_repr_edge_cases

(* every bit pattern, NaNs and infinities included, plus the kinds of value
   the flow renders: integral, short decimals, QCheck's own floats *)
let float_repr_matches_printf_property =
  QCheck.Test.make ~name:"float_repr = the Printf reference" ~count:20_000
    (QCheck.make ~print:(Printf.sprintf "%h")
       QCheck.Gen.(
         oneof
           [
             map Int64.float_of_bits ui64;
             float;
             map float_of_int int;
             map2 (fun i k -> float_of_int i /. (10. ** float_of_int k)) int (0 -- 20);
           ]))
    (fun x -> String.equal (Json.float_repr x) (float_repr_printf x))

let test_json_surrogate_pairs () =
  (* U+1F600 as an escaped surrogate pair must decode to 4-byte UTF-8 *)
  (match Json.of_string "\"\\ud83d\\ude00\"" with
  | Ok (Json.Str s) ->
      Alcotest.(check string) "surrogate pair decodes" "\xf0\x9f\x98\x80" s
  | Ok _ -> Alcotest.fail "parsed to non-string"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (* a lone high surrogate is not combined; it decodes as its own code unit *)
  (match Json.of_string "\"\\ud83dx\"" with
  | Ok (Json.Str s) ->
      Alcotest.(check int) "lone surrogate keeps width" 4 (String.length s)
  | Ok _ -> Alcotest.fail "parsed to non-string"
  | Error e -> Alcotest.failf "lone surrogate rejected: %s" e);
  (* high surrogate followed by a non-low-surrogate escape stays separate *)
  match Json.of_string "\"\\ud83d\\u0041\"" with
  | Ok (Json.Str s) ->
      Alcotest.(check bool) "ends with A" true
        (String.length s > 1 && s.[String.length s - 1] = 'A')
  | Ok _ -> Alcotest.fail "parsed to non-string"
  | Error e -> Alcotest.failf "parse failed: %s" e

let test_float_repr_corpus () =
  List.iter
    (fun (f, expect) ->
      Alcotest.(check string)
        (Printf.sprintf "float_repr %h" f)
        expect (Json.float_repr f))
    [
      (1., "1.0");
      (-0.5, "-0.5");
      (0.1, "0.1");
      (1e22, "1e+22");
      (Float.nan, "null");
      (Float.infinity, "null");
    ]

(* --- major/promoted word deltas --- *)

let test_span_major_words () =
  let sink = Obs.recorder () in
  Obs.with_sink sink (fun () ->
      Obs.span "big" (fun () ->
          (* a >256-word float array allocates directly on the major heap *)
          ignore (Sys.opaque_identity (Array.make 100_000 0.))));
  match Obs.spans sink with
  | [ s ] ->
      Alcotest.(check bool) "major words recorded" true (s.Obs.major_words > 0.);
      Alcotest.(check bool) "promoted words non-negative" true
        (s.Obs.promoted_words >= 0.)
  | l -> Alcotest.failf "expected one span, got %d" (List.length l)

let test_trace_has_alloc_fields () =
  with_temp_file (fun path ->
      let oc = open_out path in
      let sink = Obs.recorder ~trace:oc () in
      Obs.with_sink sink (fun () -> Obs.span "s" (fun () -> ()));
      close_out oc;
      match Json.of_string (String.trim (read_file path)) with
      | Error e -> Alcotest.failf "trace line invalid: %s" e
      | Ok j ->
          List.iter
            (fun k ->
              match Json.member k j with
              | Some (Json.Float _) -> ()
              | _ -> Alcotest.failf "span line missing float field %s" k)
            [ "minor_words"; "major_words"; "promoted_words" ])

(* --- JSONL trace --- *)

let test_trace_jsonl () =
  with_temp_file (fun path ->
      let oc = open_out path in
      let sink = Obs.recorder ~trace:oc () in
      Obs.with_sink sink (fun () ->
          Obs.with_exp "T1" (fun () ->
              Obs.span "alpha" ~attrs:[ ("k", Json.Int 7) ] (fun () ->
                  Obs.span "beta" (fun () -> ()));
              Obs.event "tick" [ ("n", Json.Int 1) ]));
      close_out oc;
      let lines =
        String.split_on_char '\n' (read_file path)
        |> List.filter (fun l -> String.trim l <> "")
      in
      Alcotest.(check int) "three lines" 3 (List.length lines);
      let parsed =
        List.map
          (fun l ->
            match Json.of_string l with
            | Ok j -> j
            | Error e -> Alcotest.failf "trace line does not parse: %s (%s)" l e)
          lines
      in
      let types =
        List.filter_map (fun j ->
            match Json.member "type" j with Some (Json.Str t) -> Some t | _ -> None)
          parsed
      in
      (* spans close inner-first, then the event *)
      Alcotest.(check (list string)) "line types" [ "span"; "span"; "event" ] types;
      let beta = List.nth parsed 0 in
      Alcotest.(check bool) "inner path" true
        (Json.member "path" beta = Some (Json.Str "alpha/beta"));
      Alcotest.(check bool) "exp tag" true
        (Json.member "exp" beta = Some (Json.Str "T1"));
      let alpha = List.nth parsed 1 in
      (match Json.member "attrs" alpha with
      | Some attrs ->
          Alcotest.(check bool) "attrs survive" true
            (Json.member "k" attrs = Some (Json.Int 7))
      | None -> Alcotest.fail "attrs missing from span line");
      match Json.member "dur_ns" alpha with
      | Some (Json.Int d) -> Alcotest.(check bool) "duration non-negative" true (d >= 0)
      | _ -> Alcotest.fail "dur_ns missing")

let test_metrics_json_valid () =
  let sink = Obs.recorder () in
  Obs.with_sink sink (fun () ->
      Obs.span "s" (fun () -> Obs.incr "c");
      Obs.gauge "g" 1.5;
      Obs.observe ~bounds:[| 1.; 2. |] "h" 1.5;
      Obs.event "e" []);
  let doc = Obs.metrics_json sink in
  match Json.of_string (Json.to_string ~pretty:true doc) with
  | Error e -> Alcotest.failf "metrics json invalid: %s" e
  | Ok j ->
      List.iter
        (fun k ->
          Alcotest.(check bool) (k ^ " present") true (Json.member k j <> None))
        [ "version"; "spans"; "counters"; "gauges"; "events"; "histograms" ];
      (match Json.member "spans" j with
      | Some (Json.List [ span ]) ->
          Alcotest.(check bool) "span name" true
            (Json.member "name" span = Some (Json.Str "s"))
      | _ -> Alcotest.fail "expected exactly one span");
      match Json.member "histograms" j with
      | Some (Json.List [ h ]) ->
          Alcotest.(check bool) "hist n" true (Json.member "n" h = Some (Json.Int 1))
      | _ -> Alcotest.fail "expected exactly one histogram"

let test_spans_csv () =
  let sink = Obs.recorder () in
  Obs.with_sink sink (fun () -> Obs.span "a" (fun () -> ()));
  let csv = Obs.spans_csv sink in
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + one row" 2 (List.length lines);
  Alcotest.(check bool) "header names path" true
    (String.length (List.hd lines) > 0
    && String.sub (List.hd lines) 0 5 = "\"exp\"")

(* --- determinism: telemetry must not change experiment output --- *)

let run_exp id =
  match Registry.find id with
  | Some run -> run ()
  | None -> Alcotest.failf "experiment %s not registered" id

let test_instrumentation_is_inert () =
  with_temp_file (fun path ->
      let bare = Obs.with_sink Obs.null (fun () -> Exp.render (run_exp "E6")) in
      let oc = open_out path in
      let sink = Obs.recorder ~trace:oc () in
      let traced = Obs.with_sink sink (fun () -> Exp.render (run_exp "E6")) in
      close_out oc;
      Alcotest.(check string) "E6 output byte-identical under tracing" bare traced;
      let spans = Obs.spans sink in
      let total p =
        match List.find_opt (fun (s : Obs.span_stats) -> s.Obs.name = p) spans with
        | Some s -> s.Obs.total_ns
        | None -> Alcotest.failf "span %s not recorded" p
      in
      List.iter
        (fun p ->
          Alcotest.(check bool) (p ^ " has nonzero time") true (total p > 0.))
        [ "exp.E6"; "place.anneal"; "sta.analyze" ];
      List.iter
        (fun (s : Obs.span_stats) ->
          Alcotest.(check string) "all spans tagged E6" "E6" s.Obs.exp)
        spans;
      (* every trace line must be valid JSON *)
      String.split_on_char '\n' (read_file path)
      |> List.filter (fun l -> String.trim l <> "")
      |> List.iter (fun l ->
             match Json.of_string l with
             | Ok _ -> ()
             | Error e -> Alcotest.failf "invalid trace line: %s (%s)" l e))

let test_variation_spans () =
  let bare = Obs.with_sink Obs.null (fun () -> Exp.render (run_exp "E9")) in
  let sink = Obs.recorder () in
  let traced = Obs.with_sink sink (fun () -> Exp.render (run_exp "E9")) in
  Alcotest.(check string) "E9 output byte-identical under tracing" bare traced;
  let names = List.map (fun (s : Obs.span_stats) -> s.Obs.name) (Obs.spans sink) in
  Alcotest.(check bool) "mc.simulate span present" true
    (List.mem "mc.simulate" names);
  Alcotest.(check bool) "shard timings observed" true
    (match Obs.histogram_stats sink "mc.shard_ns" with
    | Some h -> h.Obs.n > 0
    | None -> false);
  Alcotest.(check bool) "samples counted" true
    (Obs.counter_value sink "mc.samples" > 0)

let suite =
  [
    ("span nesting and aggregation", `Quick, test_span_nesting);
    ("span closes on exception", `Quick, test_span_exception_safe);
    ("experiment tagging", `Quick, test_exp_tagging);
    ("counter arithmetic", `Quick, test_counter_arithmetic);
    ("gauge last write wins", `Quick, test_gauge_last_write_wins);
    ("histogram bucket boundaries", `Quick, test_histogram_buckets);
    ("histogram default bounds", `Quick, test_histogram_default_bounds);
    ("noop sink records nothing", `Quick, test_noop_records_nothing);
    ("json round-trip", `Quick, test_json_roundtrip);
    ("json parser strictness", `Quick, test_json_parser_strict);
    ("jsonl trace parses", `Quick, test_trace_jsonl);
    ("metrics json validity", `Quick, test_metrics_json_valid);
    ("spans csv shape", `Quick, test_spans_csv);
    ("json surrogate pairs", `Quick, test_json_surrogate_pairs);
    ("float_repr corpus", `Quick, test_float_repr_corpus);
    ("float_repr edge cases = Printf", `Quick, test_float_repr_edge_cases);
    ("span major words", `Quick, test_span_major_words);
    ("trace span alloc fields", `Quick, test_trace_has_alloc_fields);
    ("tracing leaves E6 byte-identical", `Slow, test_instrumentation_is_inert);
    ("variation spans under E9", `Slow, test_variation_spans);
  ]
  @ List.map QCheck_alcotest.to_alcotest
      [
        json_roundtrip_property;
        rendered_obj_property;
        float_repr_stability_property;
        float_repr_matches_printf_property;
      ]
