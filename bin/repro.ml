(* repro: command-line driver for the paper reproduction.

   repro list            enumerate experiments (E1..E11 + extensions X1..X8)
   repro run E3 X1       run selected experiments
   repro all             run everything and print the summary
   repro resume FILE     continue a checkpointed campaign (repro all --checkpoint)
   repro faults          the fault campaign: flow sites and the daemon, one table
   repro check           run experiments with design-rule stage gates armed
   repro analysis        print the core gap analysis (factor table etc.)
   repro dump cla16      synthesize a named circuit and emit structural Verilog
   repro libdump rich    emit a generated library in Liberty format
   repro validate-json F check that a JSON document or JSONL trace is well formed
   repro sweep PRESET    design-space sweep through the result cache + worker pool
   repro pareto          Pareto frontier over (delay, area, power) with the gap composite
   repro cache stats     inspect / reset the persistent DSE result cache
   repro report TRACE    analyze a JSONL trace: self-time, top-K, critical path
   repro report --diff A B   compare two traces span by span
   repro export-trace    convert a JSONL trace to Chrome/Perfetto format
   repro serve SOCKET    the multi-client evaluation daemon
   repro fpga-gap        E11's three-way FPGA/ASIC/custom gap, Charm-gated *)

open Cmdliner

(* --- observability plumbing: --trace / --metrics-json / --obs-summary /
   --obs-csv install a recording sink around the run; with none of them the
   ambient sink stays the no-op and instrumented code is branch-cheap --- *)

type obs_opts = {
  trace : string option;
  metrics_json : string option;
  obs_summary : bool;
  obs_csv : string option;
}

let obs_term =
  let trace =
    Arg.(value & opt (some string) None
        & info [ "trace" ] ~docv:"FILE"
            ~doc:"Stream a JSONL telemetry trace (one JSON object per span/event) to $(docv).")
  in
  let metrics =
    Arg.(value & opt (some string) None
        & info [ "metrics-json" ] ~docv:"FILE"
            ~doc:"Write the aggregated metrics document (spans, counters, gauges, histograms) to $(docv) as JSON.")
  in
  let summary =
    Arg.(value & flag
        & info [ "obs-summary" ] ~doc:"Print the telemetry summary tables after the run.")
  in
  let csv =
    Arg.(value & opt (some string) None
        & info [ "obs-csv" ] ~docv:"FILE"
            ~doc:"Dump the span aggregates as CSV to $(docv).")
  in
  Term.(const (fun trace metrics_json obs_summary obs_csv ->
            { trace; metrics_json; obs_summary; obs_csv })
        $ trace $ metrics $ summary $ csv)

let write_json_doc path doc =
  Gap_util.Atomic_io.write_string path
    (Gap_obs.Json.to_string ~pretty:true doc ^ "\n")

let with_obs opts f =
  if
    Option.is_none opts.trace
    && Option.is_none opts.metrics_json
    && (not opts.obs_summary)
    && Option.is_none opts.obs_csv
  then f ()
  else begin
    (* every artifact goes through Atomic_io: the trace streams into a temp
       file committed (renamed over the target) only on success, so a crash
       mid-run cannot leave a truncated JSONL file behind *)
    let trace_w = Option.map Gap_util.Atomic_io.start opts.trace in
    let sink =
      Gap_obs.Obs.recorder ?trace:(Option.map Gap_util.Atomic_io.channel trace_w) ()
    in
    match Gap_obs.Obs.with_sink sink f with
    | code ->
        Option.iter Gap_util.Atomic_io.commit trace_w;
        Option.iter (Gap_obs.Obs.write_metrics_json sink) opts.metrics_json;
        Option.iter
          (fun path ->
            Gap_util.Atomic_io.write_string path (Gap_obs.Obs.spans_csv sink))
          opts.obs_csv;
        if opts.obs_summary then print_string (Gap_obs.Obs.summary sink);
        code
    | exception e ->
        Option.iter Gap_util.Atomic_io.abort trace_w;
        raise e
  end

let list_experiments () =
  List.iter
    (fun (id, title, _) -> Printf.printf "%-4s %s\n" id title)
    Gap_experiments.Registry.all;
  print_endline "--- extensions ---";
  List.iter
    (fun (id, title, _) -> Printf.printf "%-4s %s\n" id title)
    Gap_experiments.Registry.extensions;
  0

module Supervisor = Gap_resilience.Supervisor
module Campaign = Gap_experiments.Campaign

let run_ids ids =
  let missing = ref [] in
  let failed = ref [] in
  List.iter
    (fun id ->
      match Gap_experiments.Registry.find id with
      | Some run -> (
          (* each experiment runs in its own supervised stage: one failure
             prints a typed diagnostic and the rest still run *)
          let outcome =
            Supervisor.run_stage ~policy:Supervisor.no_retry
              ~stage:("exp." ^ id) (fun () -> run ())
          in
          match outcome.Supervisor.result with
          | Ok r -> Gap_experiments.Exp.print r
          | Error err ->
              failed := id :: !failed;
              Printf.eprintf "%s FAILED: %s\n" id
                (Gap_resilience.Stage_error.to_string err))
      | None -> missing := id :: !missing)
    ids;
  if !missing <> [] then begin
    Printf.eprintf "unknown experiment id(s): %s\n" (String.concat ", " !missing);
    1
  end
  else if !failed <> [] then 1
  else 0

let run_all with_extensions checkpoint =
  let ids = List.map (fun (id, _, _) -> id) Gap_experiments.Registry.all in
  let ids =
    if with_extensions then
      ids @ List.map (fun (id, _, _) -> id) Gap_experiments.Registry.extensions
    else ids
  in
  let outcomes = Campaign.run_experiments ?checkpoint ~ids () in
  print_string (Campaign.output outcomes);
  if Campaign.all_passed outcomes then 0 else 1

let run_resume checkpoint =
  match Campaign.resume_experiments ~checkpoint () with
  | outcomes ->
      print_string (Campaign.output outcomes);
      if Campaign.all_passed outcomes then 0 else 1
  | exception Failure msg ->
      Printf.eprintf "resume: %s\n" msg;
      1

let list_faults () =
  print_string
    (Gap_util.Table.render
       ~aligns:Gap_util.Table.[ Left; Left; Left; Left ]
       ~header:[ "site"; "layer"; "kinds"; "on injection" ]
       (List.map
          (fun (site, kinds, desc) ->
            [
              site;
              Gap_resilience.Fault.layer site;
              String.concat ","
                (List.map Gap_resilience.Stage_error.kind_string kinds);
              desc;
            ])
          Gap_resilience.Fault.catalog));
  0

let run_faults list seed json_path =
  if list then list_faults ()
  else begin
    let results = Campaign.run_faults ~seed () in
    print_string (Campaign.faults_table results);
    Option.iter
      (fun path -> write_json_doc path (Campaign.faults_json ~seed results))
      json_path;
    List.iter
      (fun (r : Campaign.row_result) ->
        if not (Campaign.outcome_ok r.outcome) then
          Printf.eprintf "faults: row %s: %s\n" r.row
            (Campaign.outcome_detail r.outcome))
      results;
    List.iter
      (fun (site, kind) ->
        Printf.eprintf "faults: catalog pair %s/%s was never injected\n" site
          (Gap_resilience.Stage_error.kind_string kind))
      (Campaign.uncovered results);
    if Campaign.faults_ok results then 0 else 1
  end

let analysis () =
  Gap_core.Report.print_full_analysis ();
  0

(* --- dump: synthesize a named circuit and print Verilog --- *)

let circuits =
  [
    ("cla16", fun () -> Gap_datapath.Adders.cla_adder 16);
    ("cla32", fun () -> Gap_datapath.Adders.cla_adder 32);
    ("ripple16", fun () -> Gap_datapath.Adders.ripple_adder 16);
    ("ks32", fun () -> Gap_datapath.Adders.kogge_stone_adder 32);
    ("mult8", fun () -> Gap_datapath.Multiplier.array_multiplier ~width:8);
    ("alu16", fun () -> Gap_datapath.Alu.alu ~adder:`Cla 16);
    ("shift32", fun () -> Gap_datapath.Shifter.barrel_shifter ~width:32);
    ("popcount16", fun () -> Gap_datapath.Counting.popcount ~width:16);
    ("decoder5", fun () -> Gap_datapath.Encoders.decoder ~width:5);
  ]

let dump name lib_profile stages =
  match List.assoc_opt name circuits with
  | None ->
      Printf.eprintf "unknown circuit %s; available: %s\n" name
        (String.concat ", " (List.map fst circuits));
      1
  | Some gen ->
      let tech = Gap_tech.Tech.asic_025um in
      let profile =
        match lib_profile with
        | "rich" -> Gap_liberty.Libgen.rich
        | "poor" -> Gap_liberty.Libgen.poor
        | "typical" -> Gap_liberty.Libgen.typical
        | "custom" -> Gap_liberty.Libgen.custom
        | other ->
            Printf.eprintf "unknown library profile %s, using rich\n" other;
            Gap_liberty.Libgen.rich
      in
      let lib = Gap_liberty.Libgen.make tech profile in
      let outcome = Gap_synth.Flow.run ~lib ~name (gen ()) in
      let nl = outcome.Gap_synth.Flow.netlist in
      if stages > 1 then
        ignore (Gap_retime.Pipeline.pipeline ~stages nl);
      Printf.eprintf "// %s\n" (Gap_sta.Report.summary (Gap_sta.Sta.analyze nl) ~lib);
      print_string (Gap_netlist.Verilog.write nl);
      0

let libdump profile_name =
  let tech = Gap_tech.Tech.asic_025um in
  let profile =
    match profile_name with
    | "rich" -> Some Gap_liberty.Libgen.rich
    | "poor" -> Some Gap_liberty.Libgen.poor
    | "typical" -> Some Gap_liberty.Libgen.typical
    | "domino" -> Some Gap_liberty.Libgen.domino
    | "custom" -> Some Gap_liberty.Libgen.custom
    | _ -> None
  in
  match profile with
  | None ->
      Printf.eprintf "unknown profile %s (rich, typical, poor, domino, custom)\n" profile_name;
      1
  | Some p ->
      Gap_liberty.Liberty_io.write_to_channel stdout (Gap_liberty.Libgen.make tech p);
      0

let list_cmd =
  let doc = "List the reproduced experiments." in
  Cmd.v (Cmd.info "list" ~doc) Term.(const list_experiments $ const ())

let run_cmd =
  let ids = Arg.(non_empty & pos_all string [] & info [] ~docv:"ID" ~doc:"Experiment ids (e.g. E3, X1)") in
  let doc = "Run selected experiments." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(const (fun obs ids -> with_obs obs (fun () -> run_ids ids)) $ obs_term $ ids)

let all_cmd =
  let ext =
    Arg.(value & flag & info [ "extensions"; "x" ] ~doc:"Also run the X1..X8 extensions.")
  in
  let checkpoint =
    Arg.(value & opt (some string) None
        & info [ "checkpoint" ] ~docv:"FILE"
            ~doc:"Atomically checkpoint campaign progress to $(docv) after every \
                  completed experiment; continue later with $(b,repro resume).")
  in
  let doc = "Run every experiment and print the pass/fail summary." in
  Cmd.v (Cmd.info "all" ~doc)
    Term.(const (fun obs ext ckpt -> with_obs obs (fun () -> run_all ext ckpt))
          $ obs_term $ ext $ checkpoint)

let resume_cmd =
  let ckpt_arg =
    Arg.(required & pos 0 (some string) None
        & info [] ~docv:"FILE"
            ~doc:"Checkpoint file written by $(b,repro all --checkpoint).")
  in
  let doc =
    "Resume an interrupted campaign: completed experiments replay from the \
     checkpoint byte-identically, the rest run fresh."
  in
  Cmd.v (Cmd.info "resume" ~doc)
    Term.(const (fun obs ckpt -> with_obs obs (fun () -> run_resume ckpt))
          $ obs_term $ ckpt_arg)

let faults_cmd =
  let seed_arg =
    Arg.(value & opt int64 2027L
        & info [ "seed" ] ~docv:"N"
            ~doc:"Seed choosing where in each row's run the fault lands.")
  in
  let json_arg =
    Arg.(value & opt (some string) None
        & info [ "json" ] ~docv:"FILE"
            ~doc:"Write the campaign report (per row: armed sites, hits, \
                  injections, checks, retries, degradations, outcome; \
                  injections per catalog pair; the ok gate) to $(docv) as \
                  JSON.")
  in
  let list_arg =
    Arg.(value & flag
        & info [ "list" ]
            ~doc:"Print the fault-site registry (site, owning layer, \
                  applicable kinds, injection semantics) and exit without \
                  running the campaign.")
  in
  let doc =
    "Run the deterministic fault campaign: flow drivers and a real daemon \
     under armed fault sites, a SIGKILL mid-workload, and vanishing, \
     stalling and flooding clients. Every row must recover, degrade, or \
     fail with a typed diagnostic, its checks (store validates, warm \
     restart replays byte-identically) must hold, and every catalog \
     (site, kind) pair must be injected; exits non-zero otherwise."
  in
  Cmd.v (Cmd.info "faults" ~doc)
    Term.(const (fun obs list seed json ->
              with_obs obs (fun () -> run_faults list seed json))
          $ obs_term $ list_arg $ seed_arg $ json_arg)

let analysis_cmd =
  let doc = "Print the factor table, residual analysis and methodology comparison." in
  Cmd.v (Cmd.info "analysis" ~doc)
    Term.(const (fun obs () -> with_obs obs analysis) $ obs_term $ const ())

let dump_cmd =
  let circuit_arg =
    Arg.(required & pos 0 (some string) None
        & info [] ~docv:"CIRCUIT" ~doc:"Circuit name (see error message for the list).")
  in
  let lib_arg =
    Arg.(value & opt string "rich"
        & info [ "lib" ] ~docv:"PROFILE" ~doc:"Library profile: rich, typical, poor, custom.")
  in
  let stages_arg =
    Arg.(value & opt int 1
        & info [ "stages" ] ~docv:"N" ~doc:"Pipeline the circuit into N stages before dumping.")
  in
  let doc = "Synthesize a circuit and emit structural Verilog on stdout." in
  Cmd.v (Cmd.info "dump" ~doc) Term.(const dump $ circuit_arg $ lib_arg $ stages_arg)

(* --- check: run experiments under design-rule stage gates --- *)

module Check = Gap_netlist.Check

let run_check ids strict json_path =
  let ids =
    if ids = [] then List.map (fun (id, _, _) -> id) Gap_experiments.Registry.all
    else List.map String.uppercase_ascii ids
  in
  let missing =
    (* Option.is_none, not [= None]: the payload is a closure, which
       structural equality must never be asked about *)
    List.filter (fun id -> Option.is_none (Gap_experiments.Registry.find id)) ids
  in
  if missing <> [] then begin
    Printf.eprintf "unknown experiment id(s): %s\n" (String.concat ", " missing);
    1
  end
  else begin
    let per_exp =
      List.map
        (fun id ->
          let run = Option.get (Gap_experiments.Registry.find id) in
          let (_ : Gap_experiments.Exp.result), log =
            Check.with_gates (fun () -> run ())
          in
          (id, log))
        ids
    in
    let count sev ds =
      List.length (List.filter (fun (d : Check.diagnostic) -> d.Check.severity = sev) ds)
    in
    let tot_gates = ref 0 and tot_err = ref 0 and tot_warn = ref 0 and tot_info = ref 0 in
    List.iter
      (fun (id, log) ->
        (* aggregate per stage so sweep-heavy experiments stay readable *)
        let stages = ref [] in
        List.iter
          (fun (r : Check.gate_report) ->
            incr tot_gates;
            match List.assoc_opt r.Check.stage !stages with
            | Some (n, ds) ->
                stages :=
                  (r.Check.stage, (n + 1, ds @ r.Check.diagnostics))
                  :: List.remove_assoc r.Check.stage !stages
            | None -> stages := (r.Check.stage, (1, r.Check.diagnostics)) :: !stages)
          log;
        List.iter
          (fun (stage, (gates, ds)) ->
            let e = count Check.Error ds
            and w = count Check.Warning ds
            and i = count Check.Info ds in
            tot_err := !tot_err + e;
            tot_warn := !tot_warn + w;
            tot_info := !tot_info + i;
            Printf.printf "%-4s %-22s %3d gate%s  %d errors, %d warnings, %d info\n"
              id stage gates
              (if gates = 1 then " " else "s")
              e w i;
            let shown = ref 0 in
            List.iter
              (fun (d : Check.diagnostic) ->
                if d.Check.severity <> Check.Info then begin
                  if !shown < 5 then
                    Printf.printf "       %s\n"
                      (Format.asprintf "%a" Check.pp_diagnostic d);
                  incr shown
                end)
              ds;
            if !shown > 5 then Printf.printf "       (+%d more)\n" (!shown - 5))
          (List.rev !stages))
      per_exp;
    Printf.printf "TOTAL: %d gates, %d errors, %d warnings, %d info\n" !tot_gates
      !tot_err !tot_warn !tot_info;
    Option.iter
      (fun path ->
        let doc =
          Gap_obs.Json.Obj
            [
              ( "experiments",
                Gap_obs.Json.List
                  (List.map
                     (fun (id, log) ->
                       Gap_obs.Json.Obj
                         [
                           ("id", Gap_obs.Json.Str id);
                           ( "gates",
                             Gap_obs.Json.List
                               (List.map Check.gate_report_json log) );
                         ])
                     per_exp) );
              ( "totals",
                Gap_obs.Json.Obj
                  [
                    ("gates", Gap_obs.Json.Int !tot_gates);
                    ("errors", Gap_obs.Json.Int !tot_err);
                    ("warnings", Gap_obs.Json.Int !tot_warn);
                    ("info", Gap_obs.Json.Int !tot_info);
                  ] );
            ]
        in
        Gap_util.Atomic_io.write_string path
          (Gap_obs.Json.to_string ~pretty:true doc ^ "\n"))
      json_path;
    if strict && !tot_err > 0 then begin
      Printf.eprintf "check --strict: %d error diagnostic(s)\n" !tot_err;
      1
    end
    else 0
  end

let check_cmd =
  let ids =
    Arg.(value & pos_all string []
        & info [] ~docv:"ID"
            ~doc:"Experiment ids to check (default: E1..E11).")
  in
  let strict =
    Arg.(value & flag
        & info [ "strict" ]
            ~doc:"Exit non-zero if any stage gate emits an $(i,Error) diagnostic.")
  in
  let json =
    Arg.(value & opt (some string) None
        & info [ "json" ] ~docv:"FILE"
            ~doc:"Write the full diagnostics report (per gate, per rule, with \
                  witnesses) to $(docv) as JSON.")
  in
  let doc =
    "Run experiments with design-rule stage gates armed and report diagnostics."
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(const (fun obs ids strict json -> with_obs obs (fun () -> run_check ids strict json))
          $ obs_term $ ids $ strict $ json)

(* --- validate-json: strict check for the metrics / trace artifacts --- *)

let validate_json path =
  match
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    s
  with
  | exception Sys_error e ->
      Printf.eprintf "%s\n" e;
      1
  | s -> (
      match Gap_obs.Json.of_string s with
      | Ok _ ->
          Printf.printf "%s: valid JSON (%d bytes)\n" path (String.length s);
          0
      | Error doc_err ->
          (* maybe a JSONL trace: every non-empty line must parse *)
          let lines =
            List.filter
              (fun l -> String.trim l <> "")
              (String.split_on_char '\n' s)
          in
          let all_parse =
            lines <> []
            && List.for_all
                 (fun l ->
                   match Gap_obs.Json.of_string l with
                   | Ok _ -> true
                   | Error _ -> false)
                 lines
          in
          if all_parse then begin
            Printf.printf "%s: valid JSONL (%d lines)\n" path (List.length lines);
            0
          end
          else begin
            Printf.eprintf "%s: malformed JSON: %s\n" path doc_err;
            1
          end)

let validate_json_cmd =
  let path_arg =
    Arg.(required & pos 0 (some string) None
        & info [] ~docv:"FILE" ~doc:"JSON or JSONL file to validate.")
  in
  let doc = "Validate a metrics JSON document or JSONL trace; exits non-zero if malformed." in
  Cmd.v (Cmd.info "validate-json" ~doc) Term.(const validate_json $ path_arg)

let libdump_cmd =
  let profile_arg =
    Arg.(value & pos 0 string "rich"
        & info [] ~docv:"PROFILE" ~doc:"Library profile: rich, typical, poor, domino, custom.")
  in
  let doc = "Generate a library and emit it in Liberty format on stdout." in
  Cmd.v (Cmd.info "libdump" ~doc) Term.(const libdump $ profile_arg)

(* --- report / export-trace: the analysis half of the observatory --- *)

module Trace = Gap_obs.Trace
module Report = Gap_obs.Report
module Export = Gap_obs.Export

let read_analysis path =
  match Trace.read_file path with
  | Ok tr -> Ok (Report.analyze tr)
  | Error e -> Error (Printf.sprintf "%s: %s" path e)

let run_report_analyze trace_path top json_path =
  match read_analysis trace_path with
  | Error m ->
      prerr_endline m;
      1
  | Ok r ->
      print_string (Report.render ~top r);
      Option.iter (fun p -> write_json_doc p (Report.to_json ~top r)) json_path;
      0

let run_report_diff a b =
  match (read_analysis a, read_analysis b) with
  | Error m, _ | _, Error m ->
      prerr_endline m;
      1
  | Ok baseline, Ok current ->
      Printf.printf "diff: %s -> %s\n" a b;
      print_string (Report.render_diff (Report.diff ~baseline ~current));
      0

(* --by-stage: pipeline-stage-resolved slack from a metrics JSON document.
   Histograms are not in the JSONL trace stream, so this reads the
   --metrics-json artifact and reconstructs each sta.slack_by_stage.<s>
   histogram against the STA slack bucket bounds (zero-count buckets are
   omitted on emission; percentiles need the full layout back). *)
let run_report_by_stage path =
  let module Json = Gap_obs.Json in
  match
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    s
  with
  | exception Sys_error e ->
      Printf.eprintf "%s\n" e;
      1
  | s -> (
      match Json.of_string s with
      | Error e ->
          Printf.eprintf "%s: malformed JSON: %s\n" path e;
          1
      | Ok doc ->
          let num = function
            | Some (Json.Float f) -> f
            | Some (Json.Int i) -> float_of_int i
            | _ -> nan
          in
          let bounds = Gap_sta.Sta.slack_bounds_ps in
          let prefix = "sta.slack_by_stage." in
          let plen = String.length prefix in
          let hists =
            match Json.member "histograms" doc with
            | Some (Json.List l) -> l
            | _ -> []
          in
          let stages =
            List.filter_map
              (fun h ->
                match Json.member "name" h with
                | Some (Json.Str n)
                  when String.length n > plen && String.sub n 0 plen = prefix ->
                    Some (String.sub n plen (String.length n - plen), h)
                | _ -> None)
              hists
            |> List.sort compare
          in
          if stages = [] then begin
            Printf.eprintf
              "%s: no sta.slack_by_stage.* histograms (capture one with \
               --metrics-json on an STA-running command)\n"
              path;
            1
          end
          else begin
            Printf.printf "pipeline-stage slack (%s)\n" path;
            Printf.printf "%-6s %10s %12s %12s %12s %12s %14s\n" "stage"
              "endpoints" "worst_ps" "mean_ps" "p50_ps" "p90_ps" "total_ps";
            List.iter
              (fun (stage, h) ->
                let n =
                  match Json.member "n" h with Some (Json.Int n) -> n | _ -> 0
                in
                let sum = num (Json.member "sum" h) in
                let min_v = num (Json.member "min" h) in
                let counts = Array.make (Array.length bounds + 1) 0 in
                (match Json.member "buckets" h with
                | Some (Json.List bs) ->
                    List.iter
                      (fun b ->
                        let c =
                          match Json.member "count" b with
                          | Some (Json.Int c) -> c
                          | _ -> 0
                        in
                        let idx =
                          match Json.member "le" b with
                          | Some (Json.Float le) -> (
                              match
                                Array.to_list bounds
                                |> List.mapi (fun i x -> (i, x))
                                |> List.find_opt (fun (_, x) -> x = le)
                              with
                              | Some (i, _) -> i
                              | None -> Array.length bounds)
                          | _ -> Array.length bounds
                        in
                        counts.(idx) <- counts.(idx) + c)
                      bs
                | _ -> ());
                let p q = Gap_obs.Report.hist_percentile ~bounds ~counts q in
                Printf.printf "%-6s %10d %12.1f %12.1f %12.1f %12.1f %14.1f\n"
                  stage n min_v
                  (if n = 0 then 0. else sum /. float_of_int n)
                  (p 50.) (p 90.) sum)
              stages;
            0
          end)

let report_cmd =
  let args_arg =
    Arg.(value & pos_all string []
        & info [] ~docv:"ARG"
            ~doc:"A JSONL trace file to analyze, or (with $(b,--diff)) two \
                  trace files to compare.")
  in
  let diff_arg =
    Arg.(value & flag
        & info [ "diff" ]
            ~doc:"Compare two traces span by span (total time per \
                  experiment and span path) instead of analyzing one.")
  in
  let top_arg =
    Arg.(value & opt int 10
        & info [ "top" ] ~docv:"K" ~doc:"Rows in the top-K rankings (default 10).")
  in
  let json_arg =
    Arg.(value & opt (some string) None
        & info [ "json" ] ~docv:"FILE"
            ~doc:"Write the full analysis document to $(docv) as JSON.")
  in
  let by_stage_arg =
    Arg.(value & flag
        & info [ "by-stage" ]
            ~doc:"Render the pipeline-stage-resolved slack table from a \
                  metrics JSON document (a $(b,--metrics-json) artifact) \
                  instead of analyzing a trace.")
  in
  let run args diff by_stage top json =
    match (diff, by_stage, args) with
    | false, true, [ metrics ] -> run_report_by_stage metrics
    | false, true, _ ->
        prerr_endline "report --by-stage: expected exactly one METRICS.json argument";
        2
    | true, true, _ ->
        prerr_endline "report: --diff and --by-stage are mutually exclusive";
        2
    | false, false, [ trace ] -> run_report_analyze trace top json
    | false, false, _ ->
        prerr_endline "report: expected exactly one TRACE argument";
        2
    | true, false, [ a; b ] -> run_report_diff a b
    | true, false, _ ->
        prerr_endline "report --diff: expected exactly two sides (A B)";
        2
  in
  let doc =
    "Analyze a JSONL telemetry trace (self-time attribution, top-K spans, \
     critical path), or with $(b,--diff) compare two traces span by span."
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(const run $ args_arg $ diff_arg $ by_stage_arg $ top_arg $ json_arg)

let export_trace_cmd =
  let trace_arg =
    Arg.(required & pos 0 (some string) None
        & info [] ~docv:"TRACE" ~doc:"JSONL trace file to convert.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
        & info [ "o"; "output" ] ~docv:"FILE"
            ~doc:"Output path (default: $(i,TRACE) with a .chrome.json suffix).")
  in
  let run trace out =
    match Trace.read_file trace with
    | Error e ->
        Printf.eprintf "%s: %s\n" trace e;
        1
    | Ok tr ->
        let out =
          match out with
          | Some o -> o
          | None ->
              (if Filename.check_suffix trace ".jsonl" then
                 Filename.chop_suffix trace ".jsonl"
               else trace)
              ^ ".chrome.json"
        in
        Export.write_chrome_trace tr out;
        (match tr.Trace.truncated with
        | Some note -> Printf.eprintf "note: truncated tail dropped (%s)\n" note
        | None -> ());
        Printf.printf "wrote %s (%d records)\n" out (List.length tr.Trace.records);
        0
  in
  let doc =
    "Convert a JSONL telemetry trace to the Chrome trace-event format \
     (loadable in chrome://tracing and ui.perfetto.dev)."
  in
  Cmd.v (Cmd.info "export-trace" ~doc) Term.(const run $ trace_arg $ out_arg)

(* --- dse: design-space sweeps, Pareto frontiers, result cache --- *)

module Dse_space = Gap_dse.Space
module Dse_sweep = Gap_dse.Sweep
module Dse_cache = Gap_dse.Cache

let default_store = "dse-cache.store"

let resolve_preset name =
  match Dse_space.find_preset name with
  | Some space -> Ok space
  | None ->
      Printf.eprintf "unknown preset %s; available: %s\n" name
        (String.concat ", " (Dse_space.preset_names ()));
      Error 1

let sweep_report (r : Dse_sweep.t) =
  (* cache traffic goes to stderr (and --json / Gap_obs): stdout must stay
     byte-identical between cold and warm runs *)
  let s = r.Dse_sweep.stats in
  Printf.eprintf "cache: %d hits, %d misses (%.1f%% hit rate), %d entries\n"
    s.Dse_cache.hits s.Dse_cache.misses
    (100. *. Dse_cache.hit_rate s)
    s.Dse_cache.entries;
  List.iter
    (fun (p, e) ->
      Printf.eprintf "FAILED %s: %s\n"
        (Dse_space.to_canonical p)
        (Gap_resilience.Stage_error.to_string e))
    r.Dse_sweep.failed

let run_sweep preset domains store no_store capacity json_path min_hit_rate =
  match resolve_preset preset with
  | Error rc -> rc
  | Ok space ->
      let store = if no_store then None else Some store in
      let r = Dse_sweep.run ~domains ?capacity ?store ~name:preset space in
      print_string (Dse_sweep.table r);
      sweep_report r;
      Option.iter (fun path -> write_json_doc path (Dse_sweep.to_json r)) json_path;
      let hit_rate = Dse_cache.hit_rate r.Dse_sweep.stats in
      let rc = if r.Dse_sweep.failed <> [] then 1 else 0 in
      (match min_hit_rate with
      | Some m when hit_rate < m ->
          Printf.eprintf "sweep: hit rate %.3f below required %.3f\n" hit_rate m;
          1
      | _ -> rc)

let run_pareto preset domains store no_store json_path =
  match resolve_preset preset with
  | Error rc -> rc
  | Ok space ->
      let store = if no_store then None else Some store in
      let r = Dse_sweep.run ~domains ?store ~name:preset space in
      print_string (Dse_sweep.pareto_table r);
      sweep_report r;
      Option.iter
        (fun path -> write_json_doc path (Dse_sweep.pareto_json r))
        json_path;
      if r.Dse_sweep.failed <> [] then 1 else 0

let cache_stats store =
  match Dse_cache.inspect_store store with
  | Dse_cache.Store i ->
      Printf.printf
        "%s: %d entries (%d records), %d segment%s, generation %d, flow %s%s\n"
        store i.Dse_cache.si_entries i.Dse_cache.si_records
        i.Dse_cache.si_segments
        (if i.Dse_cache.si_segments = 1 then "" else "s")
        i.Dse_cache.si_generation i.Dse_cache.si_flow
        (if i.Dse_cache.si_flow = Gap_dse.Eval.flow_version then ""
         else Printf.sprintf " (stale; current is %s, reads as cold)"
                Gap_dse.Eval.flow_version);
      (match i.Dse_cache.si_torn with
      | Some note -> Printf.printf "note: %s (recovered on next open)\n" note
      | None -> ());
      0
  | Dse_cache.Missing msg | Dse_cache.Foreign msg ->
      Printf.printf "%s\n" msg;
      0
  | Dse_cache.Corrupt e ->
      Printf.eprintf "%s\n" (Gap_resilience.Stage_error.to_string e);
      1

let cache_clear store =
  Dse_cache.clear store;
  Printf.printf "%s: cleared\n" store;
  0

let store_arg =
  Arg.(value & opt string default_store
      & info [ "store" ] ~docv:"PATH"
          ~doc:"Persistent result-cache store: an append-only checksummed \
                segment-store directory (a file at the path loads cold and \
                is replaced on the first write).")

let no_store_arg =
  Arg.(value & flag
      & info [ "no-store" ] ~doc:"Run with the in-memory cache only; touch no store file.")

let domains_arg =
  Arg.(value & opt int 1
      & info [ "domains" ] ~docv:"N"
          ~doc:"Worker domains evaluating cache misses; results are \
                byte-identical for every value.")

let sweep_cmd =
  let preset_arg =
    Arg.(required & pos 0 (some string) None
        & info [] ~docv:"PRESET" ~doc:"Design-space preset (see $(b,repro sweep) errors for the list).")
  in
  let capacity_arg =
    Arg.(value & opt (some int) None
        & info [ "capacity" ] ~docv:"N" ~doc:"In-memory LRU capacity (default 4096).")
  in
  let json_arg =
    Arg.(value & opt (some string) None
        & info [ "json" ] ~docv:"FILE"
            ~doc:"Write the full sweep document (points, metrics, cache accounting) to $(docv).")
  in
  let min_hit_arg =
    Arg.(value & opt (some float) None
        & info [ "min-hit-rate" ] ~docv:"R"
            ~doc:"Exit non-zero unless the cache hit rate reaches $(docv) (0..1).")
  in
  let doc =
    "Sweep a design-space preset: cached points replay from the store, \
     misses evaluate on the worker pool, and the metrics table (byte-identical \
     across cache states and worker counts) prints to stdout."
  in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(const (fun obs preset domains store no_store capacity json min_hit ->
              with_obs obs (fun () ->
                  run_sweep preset domains store no_store capacity json min_hit))
          $ obs_term $ preset_arg $ domains_arg $ store_arg $ no_store_arg
          $ capacity_arg $ json_arg $ min_hit_arg)

let pareto_cmd =
  let preset_arg =
    Arg.(value & pos 0 string "factor-axes"
        & info [] ~docv:"PRESET"
            ~doc:"Design-space preset to sweep (default factor-axes, whose \
                  full-custom corner reproduces the paper's x17.8 composite).")
  in
  let json_arg =
    Arg.(value & opt (some string) None
        & info [ "json" ] ~docv:"FILE" ~doc:"Write the frontier to $(docv) as JSON.")
  in
  let doc =
    "Sweep a preset and print its Pareto frontier over (delay, area, power) \
     with the gap-composite column."
  in
  Cmd.v (Cmd.info "pareto" ~doc)
    Term.(const (fun obs preset domains store no_store json ->
              with_obs obs (fun () -> run_pareto preset domains store no_store json))
          $ obs_term $ preset_arg $ domains_arg $ store_arg $ no_store_arg $ json_arg)

let cache_cmd =
  let stats =
    Cmd.v
      (Cmd.info "stats" ~doc:"Report the on-disk store's entry count and flow version.")
      Term.(const cache_stats $ store_arg)
  in
  let clear =
    Cmd.v
      (Cmd.info "clear"
         ~doc:"Atomically replace the store with an empty one (never leaves a partial file).")
      Term.(const cache_clear $ store_arg)
  in
  let doc = "Inspect or reset the persistent DSE result cache." in
  Cmd.group (Cmd.info "cache" ~doc) [ stats; clear ]

(* --- serve: the multi-client evaluation daemon --- *)

module Serve_protocol = Gap_serve.Protocol
module Serve_server = Gap_serve.Server

let resolve_addr s =
  match Serve_protocol.addr_of_string s with
  | Ok addr -> Ok addr
  | Error e ->
      Printf.eprintf "%s\n" e;
      Error 124

let run_serve addr domains store no_store capacity queue_bound idle_timeout =
  match resolve_addr addr with
  | Error rc -> rc
  | Ok addr -> (
      let cfg =
        {
          (Serve_server.default_config addr) with
          Serve_server.domains;
          store = (if no_store then None else Some store);
          capacity;
          queue_bound;
          idle_timeout_s =
            (if idle_timeout > 0. then Some idle_timeout else None);
        }
      in
      let t = Serve_server.create cfg in
      match Serve_server.start t with
      | () ->
          Printf.eprintf "serving on %s (%d domain%s, queue bound %d)\n%!"
            (Serve_protocol.addr_to_string addr)
            domains
            (if domains = 1 then "" else "s")
            queue_bound;
          Serve_server.wait t;
          Printf.eprintf "server stopped\n";
          0
      | exception Unix.Unix_error (e, fn, arg) ->
          Printf.eprintf "bind %s: %s (%s %s)\n"
            (Serve_protocol.addr_to_string addr)
            (Unix.error_message e) fn arg;
          1)

let queue_bound_arg =
  Arg.(value & opt int 64
      & info [ "queue-bound" ] ~docv:"N"
          ~doc:"Max queued evaluations per client before its reads block \
                (socket backpressure).")

let serve_cmd =
  let addr_arg =
    Arg.(required & pos 0 (some string) None
        & info [] ~docv:"ADDR"
            ~doc:"Socket to serve on: a filesystem path (Unix-domain; any \
                  string containing '/'), HOST:PORT, or a bare PORT on loopback.")
  in
  let capacity_arg =
    Arg.(value & opt int 4096
        & info [ "capacity" ] ~docv:"N" ~doc:"In-memory LRU capacity.")
  in
  let idle_timeout_arg =
    Arg.(value & opt float 300.
        & info [ "idle-timeout" ] ~docv:"SECONDS"
            ~doc:"Evict a connection silent for $(docv): it gets a typed \
                  timeout response (if its socket is still writable) and is \
                  closed. 0 disables eviction.")
  in
  let doc =
    "Run the evaluation daemon: JSONL requests (eval, sweep, pareto, stats, \
     ping, shutdown) over the socket, all clients sharing one \
     content-addressed result cache. Identical in-flight points coalesce to \
     a single evaluation; per-client queues are bounded and scheduled \
     round-robin; a poisoned request returns a typed stage error. Blocks \
     until a shutdown request arrives."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const run_serve
          $ addr_arg $ domains_arg $ store_arg $ no_store_arg $ capacity_arg
          $ queue_bound_arg $ idle_timeout_arg)

(* --- fpga-gap: the three-way FPGA / ASIC / custom measurement (E11) --- *)

let run_fpga_gap vectors json_path =
  let t = Gap_fpga.Gap3.run ~vectors () in
  print_string (Gap_fpga.Gap3.render t);
  (* the pipelined showcase: its STA emits the sta.slack_by_stage.*
     histograms, so a --metrics-json capture of this command feeds
     [repro report --by-stage] a multi-stage table *)
  let d = Gap_fpga.Gap3.stage_demo () in
  Printf.printf
    "\npipelined cla16 on the fabric: %.2f ns -> %.2f ns over %d stages\n"
    (d.Gap_fpga.Gap3.pipeline.Gap_retime.Pipeline.period_before_ps /. 1000.)
    (d.Gap_fpga.Gap3.pipeline.Gap_retime.Pipeline.period_after_ps /. 1000.)
    d.Gap_fpga.Gap3.pipeline.Gap_retime.Pipeline.stages;
  List.iter
    (fun (st : Gap_sta.Sta.stage_slack) ->
      Printf.printf "  stage %s: %d endpoints, worst slack %.0f ps\n"
        (Gap_sta.Sta.stage_label st.Gap_sta.Sta.stage)
        st.Gap_sta.Sta.endpoints st.Gap_sta.Sta.worst_ps)
    d.Gap_fpga.Gap3.stage_slacks;
  Option.iter (fun p -> write_json_doc p (Gap_fpga.Gap3.to_json t)) json_path;
  if Gap_fpga.Gap3.ok t then 0
  else begin
    Printf.eprintf "fpga-gap: measured ratio(s) outside the Charm tolerance\n";
    1
  end

let fpga_gap_cmd =
  let vectors_arg =
    Arg.(value & opt int Gap_fpga.Gap3.default_vectors
        & info [ "vectors" ] ~docv:"N"
            ~doc:"Random vectors per design for the dynamic-power estimate.")
  in
  let json_arg =
    Arg.(value & opt (some string) None
        & info [ "json" ] ~docv:"FILE"
            ~doc:"Write the measurement document (per-variant ratios, factor \
                  products, Charm gates) to $(docv) as JSON.")
  in
  let doc =
    "Measure the FPGA/ASIC gap by implementing each Charm variant's fixture \
     suite through both technology backends, decompose it into factor \
     products, chain the paper's ASIC->custom model for the three-way \
     FPGA/ASIC/custom table, and gate the measured ratios against the Charm \
     constants; exits non-zero outside tolerance."
  in
  Cmd.v (Cmd.info "fpga-gap" ~doc)
    Term.(const (fun obs vectors json ->
              with_obs obs (fun () -> run_fpga_gap vectors json))
          $ obs_term $ vectors_arg $ json_arg)

let main =
  let doc = "reproduction of Chinnery & Keutzer, 'Closing the Gap Between ASIC and Custom' (DAC 2000)" in
  Cmd.group
    (Cmd.info "repro" ~version:"1.0" ~doc)
    [ list_cmd; run_cmd; all_cmd; resume_cmd; faults_cmd; analysis_cmd;
      check_cmd; dump_cmd; libdump_cmd; validate_json_cmd;
      sweep_cmd; pareto_cmd; cache_cmd; report_cmd; export_trace_cmd;
      serve_cmd; fpga_gap_cmd ]

let () = exit (Cmd.eval' main)
