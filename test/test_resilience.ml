(* Gap_resilience: typed stage errors, deterministic fault injection,
   supervised retries, atomic artifact writes, and
   checkpoint/resume. The property that matters here: a killed campaign
   resumed from its checkpoint produces byte-identical final output. The
   other one — every catalog fault either recovers or surfaces a typed
   diagnostic — is the exit status of [repro faults], which test/dune runs
   in its own process. *)

module Stage_error = Gap_resilience.Stage_error
module Fault = Gap_resilience.Fault
module Supervisor = Gap_resilience.Supervisor
module Checkpoint = Gap_resilience.Checkpoint
module Atomic_io = Gap_util.Atomic_io
module Obs = Gap_obs.Obs
module Json = Gap_obs.Json
module Check = Gap_netlist.Check
module Campaign = Gap_experiments.Campaign

let with_temp_file f =
  let path = Filename.temp_file "gap_resilience_test" ".json" in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> try Sys.remove p with Sys_error _ -> ())
        [ path; path ^ ".tmp" ])
    (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* --- Stage_error: taxonomy and classification --- *)

let test_classify () =
  (match Stage_error.of_exn ~stage:"s" (Failure "boom") with
  | Stage_error.Unclassified { stage; exn_text } ->
      Alcotest.(check string) "stage" "s" stage;
      Alcotest.(check bool) "carries text" true
        (String.length exn_text > 0)
  | e -> Alcotest.failf "expected Unclassified, got %s" (Stage_error.to_string e));
  (* Stage_failure passes its payload through unchanged *)
  let inj = Stage_error.Injected { site = "x"; kind = Stage_error.Transient } in
  Alcotest.(check bool) "passthrough" true
    (Stage_error.of_exn ~stage:"s" (Stage_error.Stage_failure inj) = inj);
  (* gap_netlist registers classifiers for its own exceptions *)
  (match
     Stage_error.of_exn ~stage:"elab" (Gap_netlist.Netlist.Combinational_cycle [ 3; 7 ])
   with
  | Stage_error.Netlist_defect { rule; _ } ->
      Alcotest.(check string) "cycle rule" "comb-cycle" rule
  | e -> Alcotest.failf "expected Netlist_defect, got %s" (Stage_error.to_string e))

let test_retryable () =
  let open Stage_error in
  Alcotest.(check bool) "transient injection retryable" true
    (retryable (Injected { site = "s"; kind = Transient }));
  Alcotest.(check bool) "corruption not retryable" false
    (retryable (Injected { site = "s"; kind = Corrupt }));
  Alcotest.(check bool) "defect not retryable" false
    (retryable (Netlist_defect { stage = "s"; rule = "r"; detail = "d" }))

let test_error_json () =
  let e =
    Stage_error.Exhausted_retries
      {
        stage = "synth.map";
        attempts = 3;
        last = Stage_error.Injected { site = "synth.map"; kind = Stage_error.Transient };
      }
  in
  (* the JSON document must round-trip through the parser *)
  match Json.of_string (Json.to_string (Stage_error.to_json e)) with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "error json does not parse: %s" m

(* --- Atomic_io: crash-safe artifact writes --- *)

let test_atomic_write () =
  with_temp_file (fun path ->
      Atomic_io.write_string path "first";
      Alcotest.(check string) "written" "first" (read_file path);
      (* a writer that raises must leave the previous contents untouched
         and no temp file behind *)
      (try
         Atomic_io.write_file path (fun oc ->
             output_string oc "partial garbage";
             failwith "simulated crash mid-write")
       with Failure _ -> ());
      Alcotest.(check string) "old contents survive" "first" (read_file path);
      Alcotest.(check bool) "temp removed" false (Sys.file_exists (path ^ ".tmp")))

let test_streaming_writer () =
  with_temp_file (fun path ->
      Atomic_io.write_string path "old";
      let w = Atomic_io.start path in
      output_string (Atomic_io.channel w) "line 1\n";
      (* nothing committed yet: destination still has the old artifact *)
      Alcotest.(check string) "uncommitted" "old" (read_file path);
      Atomic_io.commit w;
      Atomic_io.commit w (* idempotent *);
      Alcotest.(check string) "committed" "line 1\n" (read_file path);
      let w2 = Atomic_io.start path in
      output_string (Atomic_io.channel w2) "doomed";
      Atomic_io.abort w2;
      Atomic_io.abort w2 (* idempotent *);
      Alcotest.(check string) "abort leaves destination" "line 1\n" (read_file path);
      Alcotest.(check bool) "abort removes temp" false
        (Sys.file_exists (path ^ ".tmp")))

(* --- Fault: off by default, deterministic skip/hits when armed --- *)

let test_fault_off () =
  Alcotest.(check bool) "unarmed" false (Fault.armed ());
  Fault.point "synth.map" (* must be a no-op *);
  Alcotest.(check (float 0.)) "corrupt_float identity" 1.5
    (Fault.corrupt_float "place.parasitic" 1.5)

let test_fault_skip_hits () =
  let injected = ref 0 in
  let result, report =
    Fault.with_plan
      [ Fault.spec ~skip:2 "test.site" Stage_error.Transient ]
      (fun () ->
        for _ = 1 to 5 do
          try Fault.point "test.site"
          with Stage_error.Stage_failure (Stage_error.Injected { site; kind }) ->
            Alcotest.(check string) "site" "test.site" site;
            Alcotest.(check bool) "kind" true (kind = Stage_error.Transient);
            incr injected
        done;
        "done")
  in
  Alcotest.(check bool) "value returned" true (result = Ok "done");
  Alcotest.(check int) "exactly one injection, on the 3rd hit" 1 !injected;
  Alcotest.(check (option int)) "hits recorded" (Some 5)
    (List.assoc_opt "test.site" report.Fault.sites_hit);
  Alcotest.(check (option int)) "injections recorded" (Some 1)
    (List.assoc_opt "test.site" report.Fault.injected);
  (* the plan is disarmed on exit *)
  Alcotest.(check bool) "disarmed after" false (Fault.armed ())

(* every (calls, skip, hits) plan injects exactly
   min hits (max 0 (calls - skip)) faults and records every hit *)
let fault_bookkeeping_prop =
  QCheck.Test.make ~name:"fault injection bookkeeping" ~count:200
    QCheck.(triple (int_bound 20) (int_bound 10) (int_range 1 5))
    (fun (calls, skip, hits) ->
      let injected = ref 0 in
      let (_ : (unit, exn) result), report =
        Fault.with_plan
          [ Fault.spec ~skip ~hits "prop.site" Stage_error.Transient ]
          (fun () ->
            for _ = 1 to calls do
              try Fault.point "prop.site"
              with Stage_error.Stage_failure _ -> incr injected
            done)
      in
      let expect = min hits (max 0 (calls - skip)) in
      let hit_count =
        Option.value ~default:0 (List.assoc_opt "prop.site" report.Fault.sites_hit)
      in
      let inj_count =
        Option.value ~default:0 (List.assoc_opt "prop.site" report.Fault.injected)
      in
      !injected = expect && inj_count = expect && hit_count = calls)

(* --- Supervisor: retry, exhaustion, typed outcomes --- *)

let test_retry_recovers () =
  let result, _ =
    Fault.with_plan
      [ Fault.spec "flaky" Stage_error.Transient ]
      (fun () ->
        Supervisor.run_stage ~stage:"flaky" (fun () ->
            Fault.point "flaky";
            42))
  in
  match result with
  | Ok o ->
      Alcotest.(check bool) "succeeded" true (o.Supervisor.result = Ok 42);
      Alcotest.(check int) "one failed attempt" 1 (List.length o.Supervisor.attempts);
      Alcotest.(check bool) "recovered" true (Supervisor.recovered o);
      let a = List.hd o.Supervisor.attempts in
      Alcotest.(check bool) "backoff recorded" true (a.Supervisor.backoff_ns > 0L)
  | Error e -> Alcotest.failf "with_plan leaked: %s" (Printexc.to_string e)

let test_retry_exhausts () =
  let result, _ =
    Fault.with_plan
      [ Fault.spec ~hits:10 "hopeless" Stage_error.Transient ]
      (fun () ->
        Supervisor.run_stage ~stage:"hopeless" (fun () ->
            Fault.point "hopeless";
            ()))
  in
  match result with
  | Ok o -> (
      match o.Supervisor.result with
      | Error (Stage_error.Exhausted_retries { attempts; last; _ }) ->
          (* default policy: 1 initial try + 2 retries *)
          Alcotest.(check int) "attempts" 3 attempts;
          Alcotest.(check bool) "last is the injection" true
            (last = Stage_error.Injected { site = "hopeless"; kind = Stage_error.Transient })
      | Error e -> Alcotest.failf "wrong error: %s" (Stage_error.to_string e)
      | Ok () -> Alcotest.fail "stage cannot succeed with 10 armed hits")
  | Error e -> Alcotest.failf "run_stage leaked: %s" (Printexc.to_string e)

let test_run_stage_never_raises () =
  let o = Supervisor.run_stage ~stage:"s" (fun () -> failwith "untyped bug") in
  (match o.Supervisor.result with
  | Error (Stage_error.Unclassified _) -> ()
  | _ -> Alcotest.fail "expected Unclassified");
  let o2 = Supervisor.run_stage ~stage:"s" (fun () -> 1 / 0) in
  match o2.Supervisor.result with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "division cannot succeed"

let test_guard_finite () =
  (* unsupervised: identity even for NaN, so the plain flow never changes *)
  Alcotest.(check bool) "unsupervised NaN passes" true
    (Float.is_nan (Supervisor.guard_finite ~stage:"s" ~what:"w" Float.nan));
  let o =
    Supervisor.run_stage ~stage:"s" (fun () ->
        Supervisor.guard_finite ~stage:"s" ~what:"slack" Float.nan)
  in
  match o.Supervisor.result with
  | Error (Stage_error.Numeric_fault { what; _ }) ->
      Alcotest.(check string) "what" "slack" what
  | _ -> Alcotest.fail "expected Numeric_fault under supervision"

(* --- Placer: mid-anneal fault falls back to best-so-far --- *)

let small_netlist () =
  let lib =
    Gap_liberty.Libgen.make Gap_tech.Tech.asic_025um Gap_liberty.Libgen.rich
  in
  (Gap_synth.Flow.run ~lib ~effort:Gap_synth.Flow.low_effort ~name:"cla16"
     (Gap_datapath.Adders.cla_adder 16))
    .Gap_synth.Flow.netlist

let test_placer_recovery () =
  let nl = small_netlist () in
  let sink = Obs.recorder () in
  let result, report =
    Obs.with_sink sink (fun () ->
        Fault.with_plan
          [ Fault.spec ~skip:5 "place.sweep" Stage_error.Transient ]
          (fun () ->
            Gap_place.Placer.place
              ~options:
                { Gap_place.Placer.default_options with sweeps = 10; seed = 3L }
              nl))
  in
  match result with
  | Ok stats ->
      Alcotest.(check bool) "fault fired mid-anneal" true
        (List.assoc_opt "place.sweep" report.Fault.injected = Some 1);
      Alcotest.(check int) "recovery recorded" 1
        (Obs.counter_value sink "place.anneal_recoveries");
      Alcotest.(check bool) "best-so-far cost is finite and sane" true
        (Float.is_finite stats.Gap_place.Placer.final_hpwl_um
        && stats.Gap_place.Placer.final_hpwl_um > 0.);
      (* the recovered placement must still be a legal placement *)
      let (), reports =
        Check.with_gates (fun () -> Check.gate ~placed:true ~stage:"test" nl)
      in
      List.iter
        (fun (r : Check.gate_report) ->
          List.iter
            (fun (d : Check.diagnostic) ->
              if d.Check.severity = Check.Error then
                Alcotest.failf "placement defect after recovery: %s"
                  (Format.asprintf "%a" Check.pp_diagnostic d))
            r.Check.diagnostics)
        reports
  | Error e -> Alcotest.failf "placer recovery failed: %s" (Printexc.to_string e)

(* --- corrupted parasitics are caught as a typed defect, not silence --- *)

let test_corrupt_parasitic_typed () =
  let nl = small_netlist () in
  ignore
    (Gap_place.Placer.place
       ~options:{ Gap_place.Placer.default_options with sweeps = 5; seed = 3L }
       nl);
  let result, report =
    Fault.with_plan
      [ Fault.spec ~skip:3 "place.parasitic" Stage_error.Corrupt ]
      (fun () ->
        Supervisor.run_stage ~stage:"place.annotate" (fun () ->
            let (), (_ : Check.gate_report list) =
              Check.with_gates ~strict:true (fun () ->
                  Gap_place.Wire_estimate.annotate nl;
                  ignore (Gap_sta.Sta.analyze nl))
            in
            ()))
  in
  match result with
  | Ok o -> (
      Alcotest.(check bool) "corruption injected" true
        (List.assoc_opt "place.parasitic" report.Fault.injected = Some 1);
      match o.Supervisor.result with
      | Error (Stage_error.Netlist_defect { rule; _ }) ->
          Alcotest.(check string) "caught by the parasitic rule" "bad-parasitic" rule
      | Error e -> Alcotest.failf "wrong diagnostic: %s" (Stage_error.to_string e)
      | Ok () -> Alcotest.fail "NaN parasitic must not pass the gates")
  | Error e -> Alcotest.failf "leaked: %s" (Printexc.to_string e)

(* --- Checkpoint: versioned, atomic, resumable --- *)

let test_checkpoint_roundtrip () =
  with_temp_file (fun path ->
      let payload = Json.Obj [ ("k", Json.Str "v"); ("n", Json.Int 3) ] in
      Checkpoint.save ~path ~campaign:"unit-test" payload;
      (match Checkpoint.load ~path with
      | Ok (campaign, p) ->
          Alcotest.(check string) "campaign tag" "unit-test" campaign;
          Alcotest.(check bool) "payload round-trips" true (p = payload)
      | Error m -> Alcotest.failf "load failed: %s" m);
      (* wrong version must be rejected, not misread *)
      Atomic_io.write_string path
        (Json.to_string
           (Json.Obj
              [
                ("version", Json.Int 999);
                ("campaign", Json.Str "unit-test");
                ("payload", Json.Null);
              ]));
      (match Checkpoint.load ~path with
      | Error m ->
          Alcotest.(check bool) "mentions version" true
            (String.length m > 0)
      | Ok _ -> Alcotest.fail "version 999 must not load");
      Atomic_io.write_string path "not json at all {";
      match Checkpoint.load ~path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "garbage must not load")

let test_checkpoint_missing () =
  match Checkpoint.load ~path:"/nonexistent/gap/checkpoint.json" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "missing file must not load"

(* --- kill + resume is byte-identical --- *)

let test_kill_resume_identity () =
  let ids = [ "E2"; "E4" ] in
  let baseline = Campaign.output (Campaign.run_experiments ~ids ()) in
  with_temp_file (fun ckpt ->
      (* "kill" after the first experiment: the checkpoint holds E2 only *)
      let partial =
        Campaign.run_experiments ~checkpoint:ckpt ~stop_after:1 ~ids ()
      in
      Alcotest.(check int) "stopped early" 1 (List.length partial);
      let resumed = Campaign.resume_experiments ~checkpoint:ckpt () in
      Alcotest.(check string) "resumed output byte-identical" baseline
        (Campaign.output resumed);
      Alcotest.(check bool) "resumed campaign passes" true
        (Campaign.all_passed resumed))

(* --- supervision itself must not perturb results --- *)

let test_supervised_render_identity () =
  let run = Option.get (Gap_experiments.Registry.find "E4") in
  let direct = Gap_experiments.Exp.render (run ()) in
  let o = Supervisor.run_stage ~stage:"exp.E4" run in
  match o.Supervisor.result with
  | Ok r ->
      Alcotest.(check string) "render identical under supervision" direct
        (Gap_experiments.Exp.render r)
  | Error e -> Alcotest.failf "E4 failed under supervision: %s" (Stage_error.to_string e)

let suite =
  [
    Alcotest.test_case "stage-error classification" `Quick test_classify;
    Alcotest.test_case "retryable taxonomy" `Quick test_retryable;
    Alcotest.test_case "stage-error json round-trip" `Quick test_error_json;
    Alcotest.test_case "atomic write crash safety" `Quick test_atomic_write;
    Alcotest.test_case "streaming writer commit/abort" `Quick test_streaming_writer;
    Alcotest.test_case "fault sites off by default" `Quick test_fault_off;
    Alcotest.test_case "fault skip/hits semantics" `Quick test_fault_skip_hits;
    QCheck_alcotest.to_alcotest fault_bookkeeping_prop;
    Alcotest.test_case "retry recovers transient fault" `Quick test_retry_recovers;
    Alcotest.test_case "retry budget exhausts typed" `Quick test_retry_exhausts;
    Alcotest.test_case "run_stage never raises" `Quick test_run_stage_never_raises;
    Alcotest.test_case "guard_finite only under supervision" `Quick test_guard_finite;
    Alcotest.test_case "placer recovers best-so-far" `Quick test_placer_recovery;
    Alcotest.test_case "corrupt parasitic is typed" `Quick test_corrupt_parasitic_typed;
    Alcotest.test_case "checkpoint round-trip + version gate" `Quick test_checkpoint_roundtrip;
    Alcotest.test_case "checkpoint missing file" `Quick test_checkpoint_missing;
    Alcotest.test_case "kill + resume byte-identical" `Quick test_kill_resume_identity;
    Alcotest.test_case "supervision is render-neutral" `Quick test_supervised_render_identity;
  ]
