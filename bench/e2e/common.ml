(* Shared plumbing for the end-to-end benchmark: clocks, percentiles, peak
   memory, the work directory, and the record one workload process hands
   back to its parent. *)

module Json = Gap_obs.Json
module Obs = Gap_obs.Obs

type scale = Full | Smoke

(* What a workload process does after its set-up:
   - [Setup]: nothing; it exits as soon as set-up is done, so the parent
     can sample set-up time several times in a run;
   - [Run]: the timed phase and its correctness checks;
   - [Attribute]: [Run], then the harness times each layer's public
     functions directly on the workload's own inputs;
   - [Traced]: [Run] under the [Gap_obs] recorder, reporting per-span
     self time. *)
type mode = Setup | Run | Attribute | Traced

type ctx = {
  seed : int;
  scale : scale;
  mode : mode;
  spawned_at_ns : int64;
      (** the parent's monotonic clock just before it spawned this process;
          CLOCK_MONOTONIC is system-wide, so set-up time counts exec, the
          runtime and every module initialiser *)
}

let scale_name = function Full -> "full" | Smoke -> "smoke"

let mode_name = function
  | Setup -> "setup"
  | Run -> "run"
  | Attribute -> "attribute"
  | Traced -> "traced"

let mode_of_name = function
  | "setup" -> Some Setup
  | "run" -> Some Run
  | "attribute" -> Some Attribute
  | "traced" -> Some Traced
  | _ -> None

let now_ns = Obs.now_ns
let secs_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e9

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, secs_since t0)

(* [acc] accumulates the seconds [f] takes. *)
let timed_into acc f =
  let r, dt = timed f in
  acc := !acc +. dt;
  r

(* Peak resident set (VmHWM) of a live process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | exception End_of_file -> nan
            | line when String.starts_with ~prefix:"VmHWM:" line ->
                Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
                  (fun kb -> float_of_int kb /. 1024.)
            | _ -> scan ()
          in
          scan ())

let self_peak_rss_mb () = peak_rss_mb (Unix.getpid ())

(* Linear-interpolation percentile of an unsorted sample. *)
let percentile xs q =
  if Array.length xs = 0 then nan else Gap_util.Stats.percentile xs q

let median xs = percentile xs 50.

(* --- work space: stores, sockets and per-process result files live
   under the working directory, never in a system temp dir --- *)

let run_root = ".e2e_run"

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Sys.remove path with Sys_error _ -> ())

let mkdir path = try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

(* A fresh directory private to this process. Relative, so Unix-socket
   paths inside it stay far below the 108-byte sun_path limit wherever the
   checkout lives. *)
let private_dir () =
  let d = Filename.concat run_root (Printf.sprintf "p%d" (Unix.getpid ())) in
  rm_rf d;
  mkdir run_root;
  mkdir d;
  d

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- what one workload process reports --- *)

type report = {
  mutable setup_s : float;
  mutable wall_s : float;
  mutable latencies_ms : float array;  (** one per timed operation *)
  mutable failed : int;  (** timed operations that failed or were incorrect *)
  mutable notes : string list;  (** what went wrong, the first few only *)
  mutable peak_mb : float;
  mutable layers : (string * float) list;
}

let empty_report () =
  {
    setup_s = nan;
    wall_s = nan;
    latencies_ms = [||];
    failed = 0;
    notes = [];
    peak_mb = nan;
    layers = [];
  }

let max_notes = 20

let fail r msg =
  r.failed <- r.failed + 1;
  if r.failed <= max_notes then r.notes <- msg :: r.notes

(* Marks the end of set-up: everything before this call, from the parent's
   spawn onwards, is set-up time. *)
let setup_done ctx r = r.setup_s <- secs_since ctx.spawned_at_ns

let report_to_json r =
  let lat = r.latencies_ms in
  let f x = if Float.is_nan x then Json.Null else Json.Float x in
  Json.Obj
    [
      ("setup_s", f r.setup_s);
      ("wall_s", f r.wall_s);
      ("attempted", Json.Int (Array.length lat));
      ("failed", Json.Int r.failed);
      ("notes", Json.List (List.rev_map (fun s -> Json.Str s) r.notes));
      ("p50_ms", f (percentile lat 50.));
      ("p99_ms", f (percentile lat 99.));
      ("p999_ms", f (percentile lat 99.9));
      ("peak_rss_mb", f r.peak_mb);
      ("layers", Json.Obj (List.rev_map (fun (k, v) -> (k, f v)) r.layers));
    ]

let add_layer r name v = r.layers <- (name, v) :: r.layers

(* --- the traced run's per-span self time, computed from the recorder --- *)

(* The recorder's aggregates, one span per (experiment, path), analysed by
   [Gap_obs.Report], so self time (a span's total minus its direct
   children's) follows Report's own policy. The recorder streams no
   per-call trace: on [serve_hits] that would be hundreds of thousands of
   lines, and writing them would inflate [trace.overhead_frac]. *)
let report_of sink =
  let records =
    List.map
      (fun (s : Obs.span_stats) ->
        Gap_obs.Trace.Span
          {
            s_exp = s.Obs.exp;
            s_path = s.Obs.path;
            s_name = s.Obs.name;
            s_depth = s.Obs.depth;
            s_start_ns = 0;
            s_dur_ns = int_of_float s.Obs.total_ns;
            s_minor_words = s.Obs.minor_words;
            s_major_words = s.Obs.major_words;
            s_promoted_words = s.Obs.promoted_words;
            s_attrs = [];
          })
      (Obs.spans sink)
  in
  Gap_obs.Report.analyze { records; line_count = List.length records; truncated = None }

(* [f] of every node named [name], summed over the paths it appears at. *)
let sum_by_name (rep : Gap_obs.Report.t) name f =
  List.fold_left
    (fun acc (n : Gap_obs.Report.node) -> if n.n_name = name then acc +. f n else acc)
    0. rep.nodes

(* The spans whose self time the traced run reports, in every workload; a
   span the workload never enters reports 0. *)
let traced_spans =
  [
    "synth.map"; "synth.sizing"; "sta.analyze"; "place.anneal"; "mc.simulate";
    "fpga.lutmap"; "serve.request"; "serve.batch"; "dse.eval"; "segstore.compact";
  ]

let add_trace_layers r sink =
  let rep = report_of sink in
  List.iter
    (fun name ->
      add_layer r ("trace." ^ name ^ ".self_s") (sum_by_name rep name (fun n -> n.n_self_ns) /. 1e9))
    traced_spans;
  add_layer r "trace.synth.map.minor_mwords"
    (sum_by_name rep "synth.map" (fun n -> n.n_minor_words) /. 1e6);
  List.iter
    (fun c -> add_layer r ("trace." ^ c) (float_of_int (Obs.counter_value sink c)))
    [ "dse.segstore.append"; "dse.segstore.compact" ]

(* The shape of the batch workloads, after their set-up: the [(name, op,
   check)] operations run in order as the timed phase (under the recorder
   when traced), one latency each; then every result is checked, the check
   naming what is wrong, if anything; then the mode's per-layer metrics.
   Operation [name] runs in a [bench.name] span and reports its time as the
   [name.wall_s] layer. *)
let batch ctx r ~ops ~attribution =
  (match ctx.mode with
  | Setup -> ()
  | mode ->
      let sink = Obs.recorder () in
      let phase () =
        let t0 = now_ns () in
        let done_ =
          List.map
            (fun (name, op, check) ->
              ( name,
                check,
                timed (fun () ->
                    try Ok (Obs.span ("bench." ^ name) op) with e -> Error (Printexc.to_string e))
              ))
            ops
        in
        r.wall_s <- secs_since t0;
        done_
      in
      let done_ = match mode with Traced -> Obs.with_sink sink phase | _ -> phase () in
      r.latencies_ms <- Array.of_list (List.map (fun (_, _, (_, dt)) -> dt *. 1e3) done_);
      List.iter
        (fun (name, check, (res, dt)) ->
          add_layer r (name ^ ".wall_s") dt;
          match res with
          | Ok x -> Option.iter (fail r) (check x)
          | Error e -> fail r (Printf.sprintf "%s raised %s" name e))
        done_;
      match mode with
      | Traced -> add_trace_layers r sink
      | Attribute -> List.iter (fun (k, v) -> add_layer r k v) (attribution ())
      | Setup | Run -> ());
  r.peak_mb <- self_peak_rss_mb ();
  r
