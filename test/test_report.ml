(* Gap_report observatory: the Trace reader is strict except for a killed
   writer's torn final line, Report's self-time/critical-path/percentile
   arithmetic matches hand-computed values on synthetic traces, the Chrome
   export is strict ts-sorted JSON, and Report.diff of two recorder traces
   reads zero on identical runs, +40% on a span slowed by 40%, and lists
   spans only one side has. *)

module Obs = Gap_obs.Obs
module Json = Gap_obs.Json
module Trace = Gap_obs.Trace
module Report = Gap_obs.Report
module Export = Gap_obs.Export

let with_temp_file f =
  let path = Filename.temp_file "gap_report_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "expected Ok, got Error: %s" e

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else String.sub haystack i nn = needle || go (i + 1)
  in
  nn = 0 || go 0

(* hand-written trace lines: a fixed tree with known totals so the
   analyzer's arithmetic can be checked exactly.

     run (E1, 0..1000)
       sta   (100..700)  minor 0
         prop (150..550) minor 10
       place (700..900)  minor 30   -- called twice: second 900..1000 m 20 *)
let span_line ?(exp = "E1") ~path ~start ~dur ?(minor = 0.) () =
  let name =
    match String.rindex_opt path '/' with
    | Some i -> String.sub path (i + 1) (String.length path - i - 1)
    | None -> path
  in
  let depth = List.length (String.split_on_char '/' path) - 1 in
  Printf.sprintf
    {|{"type":"span","exp":"%s","path":"%s","name":"%s","depth":%d,"start_ns":%d,"dur_ns":%d,"minor_words":%s,"major_words":0.0,"promoted_words":0.0}|}
    exp path name depth start dur (Json.float_repr minor)

let event_line ?(exp = "E1") ~name ~t () =
  Printf.sprintf {|{"type":"event","exp":"%s","name":"%s","t_ns":%d}|} exp name
    t

let synthetic_trace =
  String.concat "\n"
    [
      span_line ~path:"run/sta/prop" ~start:150 ~dur:400 ~minor:10. ();
      span_line ~path:"run/sta" ~start:100 ~dur:600 ();
      event_line ~name:"checkpoint" ~t:650 ();
      span_line ~path:"run/place" ~start:700 ~dur:200 ~minor:30. ();
      span_line ~path:"run/place" ~start:900 ~dur:100 ~minor:20. ();
      event_line ~name:"checkpoint" ~t:950 ();
      span_line ~path:"run" ~start:0 ~dur:1000 ();
    ]
  ^ "\n"

(* --- Trace reader --- *)

let test_trace_reads_recorder_output () =
  with_temp_file (fun path ->
      let oc = open_out path in
      let sink = Obs.recorder ~trace:oc () in
      Obs.with_sink sink (fun () ->
          Obs.with_exp "E6" (fun () ->
              Obs.span "outer" (fun () ->
                  Obs.span "inner" (fun () -> ());
                  Obs.event "tick" [ ("k", Json.Int 1) ])));
      close_out oc;
      let tr = ok (Trace.read_file path) in
      Alcotest.(check (option string)) "no truncation" None tr.Trace.truncated;
      Alcotest.(check int) "three records" 3 tr.Trace.line_count;
      (match Trace.spans tr with
      | [ inner; outer ] ->
          Alcotest.(check string) "inner path" "outer/inner" inner.Trace.s_path;
          Alcotest.(check string) "outer path" "outer" outer.Trace.s_path;
          Alcotest.(check int) "inner depth" 1 inner.Trace.s_depth;
          Alcotest.(check string) "exp tag" "E6" inner.Trace.s_exp;
          Alcotest.(check bool) "durations non-negative" true
            (inner.Trace.s_dur_ns >= 0 && outer.Trace.s_dur_ns >= 0)
      | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l));
      match Trace.events tr with
      | [ e ] ->
          Alcotest.(check string) "event name" "tick" e.Trace.e_name;
          Alcotest.(check bool) "event attrs kept" true
            (List.mem_assoc "k" e.Trace.e_attrs)
      | l -> Alcotest.failf "expected 1 event, got %d" (List.length l))

let test_trace_truncated_tail_tolerated () =
  let torn = synthetic_trace ^ {|{"type":"span","exp":"E1","pa|} in
  let tr = ok (Trace.of_string torn) in
  Alcotest.(check bool) "truncation noted" true (tr.Trace.truncated <> None);
  Alcotest.(check int) "earlier records kept" 7 tr.Trace.line_count

let test_trace_mid_file_malformed_rejected () =
  let broken =
    span_line ~path:"a" ~start:0 ~dur:10 ()
    ^ "\n{not json}\n"
    ^ span_line ~path:"b" ~start:20 ~dur:10 ()
  in
  match Trace.of_string broken with
  | Ok _ -> Alcotest.fail "mid-file garbage must not be tolerated"
  | Error e ->
      Alcotest.(check bool) "error names the line" true
        (String.length e >= 6 && String.sub e 0 6 = "line 2")

let test_trace_schema_strictness () =
  (* a final line that is valid JSON but schema-invalid is a hard error,
     not a tolerated tail: only torn writes get leniency *)
  (match Trace.of_string {|{"type":"bogus"}|} with
  | Ok _ -> Alcotest.fail "unknown record type accepted"
  | Error e ->
      Alcotest.(check bool) "names the type" true (contains e "bogus"));
  (match Trace.of_string {|{"type":"span","exp":"","path":"p","name":"p","depth":0,"start_ns":0,"dur_ns":-5}|} with
  | Ok _ -> Alcotest.fail "negative dur_ns accepted"
  | Error _ -> ());
  (* pre-PR-7 span lines carry no allocation fields: they default to 0 *)
  let old =
    {|{"type":"span","exp":"","path":"p","name":"p","depth":0,"start_ns":0,"dur_ns":5}|}
  in
  match Trace.of_string old with
  | Error e -> Alcotest.failf "old-schema line rejected: %s" e
  | Ok tr -> (
      match Trace.spans tr with
      | [ s ] ->
          Alcotest.(check (float 0.)) "minor defaults 0" 0. s.Trace.s_minor_words;
          Alcotest.(check (float 0.)) "major defaults 0" 0. s.Trace.s_major_words
      | _ -> Alcotest.fail "expected one span")

(* --- Report --- *)

let analyzed = lazy (Report.analyze (ok (Trace.of_string synthetic_trace)))

let node t path =
  match List.find_opt (fun n -> n.Report.n_path = path) t.Report.nodes with
  | Some n -> n
  | None -> Alcotest.failf "no aggregated node for %s" path

let test_report_self_time () =
  let t = Lazy.force analyzed in
  Alcotest.(check int) "five spans" 5 t.Report.span_count;
  Alcotest.(check int) "four aggregated paths" 4 (List.length t.Report.nodes);
  Alcotest.(check (float 1e-9)) "wall is max end - min start" 1000. t.Report.wall_ns;
  let check_node path ~calls ~total ~self =
    let n = node t path in
    Alcotest.(check int) (path ^ " calls") calls n.Report.n_calls;
    Alcotest.(check (float 1e-9)) (path ^ " total") total n.Report.n_total_ns;
    Alcotest.(check (float 1e-9)) (path ^ " self") self n.Report.n_self_ns
  in
  (* run: 1000 total - (sta 600 + place 300) = 100 self
     sta: 600 - prop 400 = 200; leaves keep total as self *)
  check_node "run" ~calls:1 ~total:1000. ~self:100.;
  check_node "run/sta" ~calls:1 ~total:600. ~self:200.;
  check_node "run/sta/prop" ~calls:1 ~total:400. ~self:400.;
  check_node "run/place" ~calls:2 ~total:300. ~self:300.;
  Alcotest.(check (float 1e-9)) "place min over calls" 100.
    (node t "run/place").Report.n_min_ns;
  Alcotest.(check (float 1e-9)) "place minor words sum" 50.
    (node t "run/place").Report.n_minor_words;
  Alcotest.(check (list (pair string int))) "event counts" [ ("checkpoint", 2) ]
    t.Report.event_counts

let test_report_rankings_and_critical_path () =
  let t = Lazy.force analyzed in
  let paths l = List.map (fun n -> n.Report.n_path) l in
  Alcotest.(check (list string)) "top by self time"
    [ "run/sta/prop"; "run/place"; "run/sta"; "run" ]
    (paths (Report.top_by_wall t));
  Alcotest.(check (list string)) "top-k truncates" [ "run/sta/prop" ]
    (paths (Report.top_by_wall ~k:1 t));
  Alcotest.(check (list string)) "top by allocation keeps allocators first"
    [ "run/place"; "run/sta/prop" ]
    (paths (Report.top_by_alloc ~k:2 t));
  (* heaviest root is run; its heaviest child sta (600 > 300), then prop *)
  Alcotest.(check (list string)) "critical path"
    [ "run"; "run/sta"; "run/sta/prop" ]
    (paths (Report.critical_path t))

let test_report_render_and_json () =
  let t = Lazy.force analyzed in
  let s = Report.render t in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "render mentions %S" needle) true
        (contains s needle))
    [ "span tree"; "critical path"; "prop"; "checkpoint" ];
  match Report.to_json t with
  | Json.Obj kvs ->
      List.iter
        (fun k ->
          Alcotest.(check bool) ("json has " ^ k) true (List.mem_assoc k kvs))
        [ "nodes"; "top_by_self_ns"; "top_by_alloc"; "critical_path"; "events" ]
  | _ -> Alcotest.fail "report json is not an object"

let test_hist_percentile () =
  let bounds = [| 1.; 2.; 4. |] in
  let counts = [| 2; 2; 2; 1 |] in
  let p q = Report.hist_percentile ~bounds ~counts q in
  (* n=7; p50 target 3.5 lands mid second bucket: 1 + (3.5-2)/2 = 1.75 *)
  Alcotest.(check (float 1e-9)) "p50 interpolates" 1.75 (p 50.);
  Alcotest.(check (float 1e-9)) "p0 is lower edge" 0. (p 0.);
  Alcotest.(check (float 1e-6)) "exact at bucket edge" 1. (p (200. /. 7.));
  Alcotest.(check (float 1e-9)) "overflow reports last bound" 4. (p 100.);
  Alcotest.(check bool) "empty histogram is nan" true
    (Float.is_nan
       (Report.hist_percentile ~bounds ~counts:[| 0; 0; 0; 0 |] 50.));
  Alcotest.check_raises "shape mismatch rejected"
    (Invalid_argument
       "Report.hist_percentile: counts must be one longer than bounds")
    (fun () -> ignore (Report.hist_percentile ~bounds ~counts:[| 1 |] 50.))

(* --- Export --- *)

let test_export_chrome_trace () =
  let tr = ok (Trace.of_string synthetic_trace) in
  let doc = Export.chrome_trace tr in
  (* strict JSON all the way through the renderer *)
  (match Json.of_string (Json.to_string ~pretty:true doc) with
  | Ok v -> Alcotest.(check bool) "pretty form round-trips" true (v = doc)
  | Error e -> Alcotest.failf "export is not strict JSON: %s" e);
  let events =
    match Json.member "traceEvents" doc with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "no traceEvents list"
  in
  Alcotest.(check int) "all records exported" 7 (List.length events);
  let ts_of e =
    match Json.member "ts" e with
    | Some (Json.Float f) -> f
    | _ -> Alcotest.fail "event without numeric ts"
  in
  let tss = List.map ts_of events in
  Alcotest.(check (float 1e-9)) "ts rebased to zero" 0. (List.hd tss);
  ignore
    (List.fold_left
       (fun prev t ->
         Alcotest.(check bool) "ts sorted ascending" true (t >= prev);
         t)
       neg_infinity tss);
  List.iter
    (fun e ->
      (match Json.member "ph" e with
      | Some (Json.Str ("X" | "i")) -> ()
      | _ -> Alcotest.fail "unexpected phase");
      match Json.member "dur" e with
      | Some (Json.Float d) -> Alcotest.(check bool) "dur >= 0" true (d >= 0.)
      | None -> () (* instants carry no dur *)
      | Some _ -> Alcotest.fail "non-float dur")
    events

(* --- Report.diff --- *)

(* record [body] through a recorder sink and read the trace back *)
let record body =
  with_temp_file (fun path ->
      let oc = open_out path in
      Obs.with_sink (Obs.recorder ~trace:oc ()) (fun () ->
          Obs.with_exp "E4" body);
      close_out oc;
      ok (Trace.read_file path))

let run_spans ~route () =
  Obs.span "sta" (fun () -> Obs.span "prop" (fun () -> Unix.sleepf 0.002));
  Obs.span "place" (fun () -> Unix.sleepf 0.002);
  if route then Obs.span "route" (fun () -> ())

let test_report_diff () =
  let tr = record (run_spans ~route:false) in
  let base = Report.analyze tr in
  (* identical traces: every span compared, every delta exactly zero *)
  let same = Report.diff ~baseline:base ~current:base in
  Alcotest.(check (list string)) "all spans compared"
    [ "E4:sta/prop"; "E4:sta"; "E4:place" ]
    (List.map (fun d -> d.Report.span) same.Report.deltas);
  List.iter
    (fun d ->
      Alcotest.(check (float 0.)) (d.Report.span ^ " delta") 0. d.Report.pct)
    same.Report.deltas;
  Alcotest.(check (list string)) "nothing one-sided" []
    (same.Report.only_base @ same.Report.only_cur);
  (* the same trace with place 40% slower: only place moves, by +40% *)
  let slowed =
    {
      tr with
      Trace.records =
        List.map
          (function
            | Trace.Span sp when sp.Trace.s_path = "place" ->
                Trace.Span
                  { sp with Trace.s_dur_ns = sp.Trace.s_dur_ns * 14 / 10 }
            | r -> r)
          tr.Trace.records;
    }
  in
  let d = Report.diff ~baseline:base ~current:(Report.analyze slowed) in
  (match List.filter (fun d -> d.Report.pct <> 0.) d.Report.deltas with
  | [ dl ] ->
      Alcotest.(check string) "the slowed span" "E4:place" dl.Report.span;
      Alcotest.(check (float 1e-3)) "+40%" 40. dl.Report.pct
  | l -> Alcotest.failf "expected 1 moved span, got %d" (List.length l));
  let r = Report.render_diff d in
  Alcotest.(check bool) "render names it" true (contains r "E4:place");
  Alcotest.(check bool) "render shows +40.0%" true (contains r "+40.0%");
  (* a second recorder trace with one more span *)
  let more = Report.analyze (record (run_spans ~route:true)) in
  let grown = Report.diff ~baseline:base ~current:more in
  Alcotest.(check (list string)) "only in current" [ "E4:route" ]
    grown.Report.only_cur;
  Alcotest.(check (list string)) "shared spans compared"
    [ "E4:sta/prop"; "E4:sta"; "E4:place" ]
    (List.map (fun d -> d.Report.span) grown.Report.deltas);
  let shrunk = Report.diff ~baseline:more ~current:base in
  Alcotest.(check (list string)) "only in baseline" [ "E4:route" ]
    shrunk.Report.only_base;
  Alcotest.(check bool) "render lists it" true
    (contains (Report.render_diff shrunk) "only in baseline: E4:route")

(* --- stage-resolved STA slack histograms --- *)

let test_sta_slack_by_depth () =
  let module Netlist = Gap_netlist.Netlist in
  let module Sta = Gap_sta.Sta in
  let module Library = Gap_liberty.Library in
  let module Libgen = Gap_liberty.Libgen in
  let lib = Libgen.make Gap_tech.Tech.asic_025um Libgen.rich in
  let cell base drive = Option.get (Library.find lib ~base ~drive) in
  let nl = Netlist.create ~lib "chain" in
  let cur = ref (Netlist.add_input nl "in") in
  for _ = 1 to 4 do
    let i = Netlist.add_cell nl (cell "INV" 1.) [| !cur |] in
    cur := Netlist.out_net nl i
  done;
  ignore (Netlist.set_output nl "out" !cur);
  let sink = Obs.recorder () in
  Obs.with_sink sink (fun () -> ignore (Sta.analyze nl));
  Alcotest.(check string) "4 gates land in the shallow bucket" "01_04"
    (Sta.depth_bucket 4);
  let by_depth =
    List.filter
      (fun (name, _) ->
        String.length name > 18
        && String.sub name 0 18 = "sta.slack_by_depth")
      (Obs.histograms sink)
  in
  Alcotest.(check bool) "depth-bucketed histograms recorded" true
    (by_depth <> []);
  let n_by_depth =
    List.fold_left (fun acc (_, h) -> acc + h.Obs.n) 0 by_depth
  in
  match Obs.histogram_stats sink "sta.endpoint_slack_ps" with
  | Some h ->
      Alcotest.(check int) "every endpoint is depth-attributed" h.Obs.n
        n_by_depth
  | None -> Alcotest.fail "endpoint slack histogram missing"

let suite =
  [
    ("trace reads recorder output", `Quick, test_trace_reads_recorder_output);
    ("trace tolerates truncated tail", `Quick, test_trace_truncated_tail_tolerated);
    ("trace rejects mid-file garbage", `Quick, test_trace_mid_file_malformed_rejected);
    ("trace schema strictness", `Quick, test_trace_schema_strictness);
    ("report self-time attribution", `Quick, test_report_self_time);
    ("report rankings and critical path", `Quick, test_report_rankings_and_critical_path);
    ("report render and json", `Quick, test_report_render_and_json);
    ("histogram percentiles", `Quick, test_hist_percentile);
    ("chrome trace export", `Quick, test_export_chrome_trace);
    ("diff of two recorder traces", `Quick, test_report_diff);
    ("sta slack by logic depth", `Quick, test_sta_slack_by_depth);
  ]
