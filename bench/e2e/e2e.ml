(* e2e: the end-to-end benchmark.

     e2e.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
             [--scale full|smoke] [--json OUT]

   Workloads: tables, flow, serve_hits, serve_fresh (see README.md for why
   each exists). Every measurement happens in a fresh child process, so
   no run inherits another's warm caches or heap:

   - untraced (the default): repeats the workload's fixed timed phase in
     fresh processes until [--seconds] of it have passed (at least once),
     samples set-up several times, and reports the median of each
     end-to-end metric over the repeats;
   - traced ([--trace 1]): one untraced process that also times each
     layer's public functions on the workload's inputs, then one process
     under the [Gap_obs] recorder; reports the per-layer metrics, and the
     traced over untraced timed phase as the tracing overhead.

   The last line of standard output is one JSON object: correct, attempted,
   failed and metrics (name -> value and unit). The exit code is 0 when
   every operation succeeded and its output was correct, 1 otherwise. *)

module Json = Gap_obs.Json

let workloads =
  [
    ("tables", Tables.run);
    ("flow", Flow_suite.run);
    ("serve_hits", Serve_load.run Serve_load.Hits);
    ("serve_fresh", Serve_load.run Serve_load.Fresh);
  ]

let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("ops_per_s", "1/s");
    ("p50_ms", "ms");
    ("p99_ms", "ms");
    ("peak_rss_mb", "MB");
  ]

let per_layer =
  List.init 11 (fun i -> (Printf.sprintf "exp.E%d.wall_s" (i + 1), "s"))
  @ [
      ("synth.map.wall_s", "s");
      ("synth.cuts.wall_s", "s");
      ("synth.cut_fn.wall_s", "s");
      ("liberty.match.wall_s", "s");
      ("synth.map.minor_mwords", "Mword");
      ("synth.balance.wall_s", "s");
      ("synth.buffer.wall_s", "s");
      ("synth.sizing.wall_s", "s");
      ("sta.analyze.wall_s", "s");
      ("place.anneal.wall_s", "s");
      ("fpga.implement.wall_s", "s");
      ("synth.aig_nodes", "count");
      ("synth.cuts", "count");
      ("synth.cut_fns", "count");
      ("synth.cut_fns_distinct", "count");
      ("liberty.match_empty_frac", "frac");
      ("synth.cells", "count");
      ("synth.buffers", "count");
      ("synth.sizing_moves", "count");
      ("place.moves_accepted", "count");
      ("fpga.luts", "count");
      ("fpga.lut_levels", "count");
      ("serve.protocol.us", "us");
      ("dse.key.us", "us");
      ("dse.cache_find.us", "us");
      ("dse.eval.us", "us");
      ("dse.eval_mc.us", "us");
      ("dse.flush.ms", "ms");
      ("dse.compact.ms", "ms");
      ("serve.evals", "count");
      ("serve.cache_hits", "count");
      ("serve.coalesced", "count");
      ("serve.batches", "count");
      ("serve.batch_mean", "count");
      ("serve.flush_failures", "count");
      ("dse.store.segments", "count");
      ("dse.store.generation", "count");
    ]
  @ List.map (fun s -> ("trace." ^ s ^ ".self_s", "s")) Common.traced_spans
  @ [
      ("trace.synth.map.minor_mwords", "Mword");
      ("trace.dse.segstore.append", "count");
      ("trace.dse.segstore.compact", "count");
      ("trace.overhead_frac", "frac");
    ]

(* set-up is sampled at least this many times per untraced run *)
let setup_samples = 7

let usage () =
  prerr_endline
    "usage: e2e.exe --workload tables|flow|serve_hits|serve_fresh [--seed N]\n\
    \               [--seconds S] [--trace 0|1] [--scale full|smoke] [--json OUT]"

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("e2e: " ^ s);
      exit 2)
    fmt

(* --- child processes --- *)

type child = {
  c_setup_s : float;
  c_wall_s : float;
  c_attempted : int;
  c_failed : int;
  c_p50 : float;
  c_p99 : float;
  c_peak_mb : float;
  c_layers : (string * float) list;
  c_doc : Json.t;
}

let num = function Some (Json.Float f) -> f | Some (Json.Int i) -> float_of_int i | _ -> nan
let int_of = function Some (Json.Int i) -> i | _ -> 0

let child_of_json j =
  let m k = Json.member k j in
  {
    c_setup_s = num (m "setup_s");
    c_wall_s = num (m "wall_s");
    c_attempted = int_of (m "attempted");
    c_failed = int_of (m "failed");
    c_p50 = num (m "p50_ms");
    c_p99 = num (m "p99_ms");
    c_peak_mb = num (m "peak_rss_mb");
    c_layers =
      (match m "layers" with
      | Some (Json.Obj kvs) -> List.map (fun (k, v) -> (k, num (Some v))) kvs
      | _ -> []);
    c_doc = j;
  }

let spawned = ref 0

let spawn ~workload ~seed ~scale mode =
  Common.mkdir Common.run_root;
  incr spawned;
  let out =
    Filename.concat Common.run_root (Printf.sprintf "c%d-%d.json" (Unix.getpid ()) !spawned)
  in
  let argv =
    [|
      Sys.executable_name; "--child"; Common.mode_name mode; "--workload"; workload;
      "--seed"; string_of_int seed; "--scale"; Common.scale_name scale;
      "--out"; out; "--spawned-at"; "";
    |]
  in
  argv.(Array.length argv - 1) <- Int64.to_string (Common.now_ns ());
  (* the child's standard output goes to our standard error: our last
     stdout line must stay the result *)
  let pid = Unix.create_process Sys.executable_name argv Unix.stdin Unix.stderr Unix.stderr in
  let _, status = Unix.waitpid [] pid in
  let doc =
    match status with
    | Unix.WEXITED 0 -> (
        match Json.of_string (Common.read_file out) with
        | Ok j -> j
        | Error e -> die "%s %s: unreadable result: %s" workload (Common.mode_name mode) e)
    | Unix.WEXITED c | Unix.WSIGNALED c | Unix.WSTOPPED c ->
        Common.rm_rf Common.run_root;
        die "%s %s process failed (status %d)" workload (Common.mode_name mode) c
  in
  Common.rm_rf out;
  child_of_json doc

let child_main ~workload ~mode ~seed ~scale ~out ~spawned_at_ns =
  let run =
    match List.assoc_opt workload workloads with
    | Some f -> f
    | None -> die "unknown workload %s" workload
  in
  let r = run { Common.seed; scale; mode; spawned_at_ns } in
  Gap_util.Atomic_io.write_string out (Json.to_string (Common.report_to_json r))

(* --- aggregation --- *)

let median xs = Common.median (Array.of_list xs)

let untraced ~workload ~seed ~scale ~seconds =
  (* repeats until [seconds] of timed phase have passed, at least one *)
  let rec repeat acc elapsed =
    let c = spawn ~workload ~seed ~scale Common.Run in
    let acc = c :: acc and elapsed = elapsed +. c.c_wall_s in
    if elapsed < seconds then repeat acc elapsed else List.rev acc
  in
  let reps = repeat [] 0. in
  let extra =
    List.init
      (max 0 (setup_samples - List.length reps))
      (fun _ -> (spawn ~workload ~seed ~scale Common.Setup).c_setup_s)
  in
  let setups = List.map (fun c -> c.c_setup_s) reps @ extra in
  let per f = median (List.map f reps) in
  let metrics =
    [
      ("setup_s", median setups);
      ("wall_s", per (fun c -> c.c_wall_s));
      ("ops_per_s", per (fun c -> float_of_int c.c_attempted /. c.c_wall_s));
      ("p50_ms", per (fun c -> c.c_p50));
      ("p99_ms", per (fun c -> c.c_p99));
      ("peak_rss_mb", per (fun c -> c.c_peak_mb));
    ]
  in
  let detail =
    [
      ("repeats", Json.List (List.map (fun c -> c.c_doc) reps));
      ("setup_samples_s", Json.List (List.map (fun s -> Json.Float s) setups));
    ]
  in
  (reps, metrics, end_to_end, detail)

let traced ~workload ~seed ~scale =
  let a = spawn ~workload ~seed ~scale Common.Attribute in
  let b = spawn ~workload ~seed ~scale Common.Traced in
  let is_trace k = String.starts_with ~prefix:"trace." k in
  let layers =
    List.filter (fun (k, _) -> not (is_trace k)) a.c_layers
    @ List.filter (fun (k, _) -> is_trace k) b.c_layers
    @ [ ("trace.overhead_frac", (b.c_wall_s /. a.c_wall_s) -. 1.) ]
  in
  let metrics =
    List.map (fun (k, _) -> (k, Option.value ~default:0. (List.assoc_opt k layers))) per_layer
  in
  let detail =
    [
      ("untraced_wall_s", Json.Float a.c_wall_s);
      ("traced_wall_s", Json.Float b.c_wall_s);
      ("processes", Json.List [ a.c_doc; b.c_doc ]);
    ]
  in
  ([ a; b ], metrics, per_layer, detail)

(* The result line, re-read and checked before it is printed: every
   metric present once, finite, with its unit. *)
let result_line ~correct ~attempted ~failed metrics units =
  let line =
    Json.to_string
      (Json.Obj
         [
           ("correct", Json.Bool correct);
           ("attempted", Json.Int attempted);
           ("failed", Json.Int failed);
           ( "metrics",
             Json.Obj
               (List.map
                  (fun (k, u) ->
                    (k, Json.Obj [ ("value", Json.Float (List.assoc k metrics)); ("unit", Json.Str u) ]))
                  units) );
         ])
  in
  let valid =
    match Json.of_string line with
    | Ok (Json.Obj [ ("correct", Json.Bool _); ("attempted", Json.Int n); ("failed", Json.Int _); ("metrics", Json.Obj ms) ])
      ->
        n >= 1
        && List.length ms = List.length units
        && List.for_all2
             (fun (k, v) (k', u) ->
               String.equal k k'
               &&
               match v with
               | Json.Obj [ ("value", Json.Float x); ("unit", Json.Str u') ] ->
                   Float.is_finite x && String.equal u u'
               | _ -> false)
             ms units
    | _ -> false
  in
  if not valid then die "malformed result: %s" line;
  line

let parent_main ~workload ~seed ~seconds ~trace ~scale ~json_out =
  if not (List.mem_assoc workload workloads) then die "unknown workload %s" workload;
  let children, metrics, units, detail =
    if trace then traced ~workload ~seed ~scale else untraced ~workload ~seed ~scale ~seconds
  in
  Common.rm_rf Common.run_root;
  let attempted = List.fold_left (fun n c -> n + c.c_attempted) 0 children in
  let failed = List.fold_left (fun n c -> n + c.c_failed) 0 children in
  let correct = failed = 0 in
  List.iter
    (fun (k, u) -> Printf.printf "%-32s %14.6g %s\n" k (List.assoc k metrics) u)
    units;
  Printf.printf "%s seed %d: %d operations, %d failed; latency percentiles over %d samples\n"
    workload seed attempted failed
    (match children with c :: _ -> c.c_attempted | [] -> 0);
  let line = result_line ~correct ~attempted ~failed metrics units in
  Option.iter
    (fun path ->
      let meta = Gap_obs.History.meta_now () in
      Gap_util.Atomic_io.write_string path
        (Json.to_string ~pretty:true
           (Json.Obj
              ([
                 ("workload", Json.Str workload);
                 ("seed", Json.Int seed);
                 ("trace", Json.Bool trace);
                 ("scale", Json.Str (Common.scale_name scale));
                 ("meta", Gap_obs.History.meta_json meta);
                 ("calibration_ns", Json.Float (Gap_obs.History.calibrate ()));
                 ( "failed_frac",
                   Json.Float (float_of_int failed /. float_of_int (max 1 attempted)) );
                 ("result", Result.get_ok (Json.of_string line));
               ]
              @ detail))
        ^ "\n"))
    json_out;
  print_endline line;
  exit (if correct then 0 else 1)

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 0. and trace = ref false in
  let scale = ref Common.Full and json_out = ref None in
  let child = ref None and out = ref None and spawned_at = ref None in
  let number name conv v =
    match conv v with Some x -> x | None -> die "%s: not a number: %s" name v
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := Some w; parse rest
    | "--seed" :: n :: rest -> seed := number "--seed" int_of_string_opt n; parse rest
    | "--seconds" :: s :: rest -> seconds := number "--seconds" float_of_string_opt s; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := v = "1"; parse rest
    | "--trace" :: rest -> trace := true; parse rest
    | "--scale" :: "full" :: rest -> scale := Common.Full; parse rest
    | "--scale" :: "smoke" :: rest -> scale := Common.Smoke; parse rest
    | "--json" :: p :: rest -> json_out := Some p; parse rest
    | "--child" :: m :: rest -> child := Common.mode_of_name m; parse rest
    | "--out" :: p :: rest -> out := Some p; parse rest
    | "--spawned-at" :: t :: rest -> spawned_at := Int64.of_string_opt t; parse rest
    | ("--help" | "-h") :: _ -> usage (); exit 0
    | arg :: _ -> usage (); die "unexpected argument %s" arg
  in
  parse (List.tl (Array.to_list Sys.argv));
  let workload = match !workload with Some w -> w | None -> usage (); die "--workload is required" in
  match (!child, !out, !spawned_at) with
  | Some mode, Some out, Some spawned_at_ns ->
      child_main ~workload ~mode ~seed:!seed ~scale:!scale ~out ~spawned_at_ns
  | None, None, None ->
      parent_main ~workload ~seed:!seed ~seconds:!seconds ~trace:!trace ~scale:!scale
        ~json_out:!json_out
  | _ -> die "--child, --out and --spawned-at go together"
