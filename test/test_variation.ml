(* Tests for Gap_variation: the model, Monte Carlo runs, binning, maturity. *)

module V = Gap_variation.Model
module MC = Gap_variation.Montecarlo
module B = Gap_variation.Binning
module M = Gap_variation.Maturity

let check_close msg tol expected actual = Alcotest.(check (float tol)) msg expected actual

let run ?(fab = V.typical_fab) ?(sigmas = V.mature) ?(dies = 20000) ?(seed = 1L) () =
  MC.simulate ~seed ~model:(V.make ~fab_mean:fab sigmas) ~nominal_mhz:200. ~dies ()

let test_sample_positive_and_centred () =
  let rng = Gap_util.Rng.create () in
  let model = V.make V.mature in
  let stats = Gap_util.Stats.running () in
  for _ = 1 to 50_000 do
    let f = V.sample_speed_factor model rng in
    Alcotest.(check bool) "positive" true (f > 0.);
    Gap_util.Stats.add stats f
  done;
  (* mean sits slightly below fab_mean because intra-die only hurts *)
  Alcotest.(check bool) "mean in (0.93, 1.0)" true
    (Gap_util.Stats.mean stats > 0.93 && Gap_util.Stats.mean stats < 1.0)

let test_total_sigma () =
  let s = V.total_sigma V.mature in
  check_close "rss" 1e-9 (sqrt ((0.035 ** 2.) +. (0.025 ** 2.) +. (0.04 ** 2.))) s;
  Alcotest.(check bool) "new process wider" true (V.total_sigma V.new_process > s)

let test_mc_deterministic () =
  let a = run ~seed:5L () and b = run ~seed:5L () in
  Alcotest.(check (float 1e-9)) "same seed same run" (MC.mean a) (MC.mean b);
  let c = run ~seed:6L () in
  Alcotest.(check bool) "different seed differs" true (MC.mean a <> MC.mean c)

let test_mc_domains_identical () =
  (* the shard layout depends only on [dies], so the sample array must be
     byte-identical for any worker count — including a dies count that does
     not divide evenly into shards *)
  let model = V.make V.mature in
  let base = MC.simulate ~seed:7L ~model ~nominal_mhz:250. ~dies:4500 () in
  List.iter
    (fun d ->
      let r = MC.simulate ~seed:7L ~domains:d ~model ~nominal_mhz:250. ~dies:4500 () in
      Alcotest.(check bool)
        (Printf.sprintf "domains=%d identical" d)
        true
        (r.MC.fmax_mhz = base.MC.fmax_mhz))
    [ 1; 2; 4 ]

let mc_domains_identical_property =
  (* same contract as the pinned test above, but over random seeds and dies
     counts — shard-boundary stragglers, single-shard runs, and runs smaller
     than the worker count included *)
  QCheck.Test.make ~name:"mc samples byte-identical across domains" ~count:12
    QCheck.(pair (int_bound 1000) (int_range 1 5000))
    (fun (seed, dies) ->
      let model = V.make V.mature in
      let seed = Int64.of_int seed in
      let base = MC.simulate ~seed ~model ~nominal_mhz:250. ~dies () in
      List.for_all
        (fun d ->
          let r = MC.simulate ~seed ~domains:d ~model ~nominal_mhz:250. ~dies () in
          r.MC.fmax_mhz = base.MC.fmax_mhz
          && MC.percentile r 50. = MC.percentile base 50.)
        [ 2; 4 ])

(* --- retained standard normals: an independent scalar oracle --- *)

(* What every run must equal, however many of its normals were retained
   from earlier runs: die [i] of shard [s] (1024 dies a shard) is
   [nominal x sample_speed_factor] on the [s]-th split of the master seed,
   one scalar draw at a time. A run's samples are a prefix of a longer
   run's, so one reference per (seed, model) serves every die count. *)
let reference ~seed ~model ~nominal_mhz ~dies =
  let master = Gap_util.Rng.create ~seed () in
  let out = Array.make dies 0. in
  for s = 0 to ((dies + 1023) / 1024) - 1 do
    let rng = Gap_util.Rng.split master in
    for i = s * 1024 to min dies ((s + 1) * 1024) - 1 do
      out.(i) <- nominal_mhz *. V.sample_speed_factor model rng
    done
  done;
  out

let same_bits (r : MC.run) expected =
  let n = Gap_util.Stats.buf_length r.MC.fmax_mhz in
  let ok = ref (n <= Array.length expected) in
  for i = 0 to n - 1 do
    if !ok then
      ok :=
        Int64.equal
          (Int64.bits_of_float r.MC.fmax_mhz.{i})
          (Int64.bits_of_float expected.(i))
  done;
  !ok

(* The retention rule, as the counters must report it: a run reuses the
   shards retained for its seed and draws the rest. When its seed is the
   retained one or the previous run's, it leaves retained the first
   [min shards 64] of its seed, unless as many were already kept. *)
type retention = {
  mutable r_seed : int64 option;
  mutable r_shards : int;
  mutable r_last : int64 option;
}

let expect_counts ret ~seed ~dies =
  let shards = (dies + 1023) / 1024 in
  let held = if ret.r_seed = Some seed then ret.r_shards else 0 in
  let admitted = held > 0 || ret.r_last = Some seed in
  ret.r_last <- Some seed;
  let reused = min shards held in
  let keep = if admitted then min shards 64 else 0 in
  if keep > held then begin
    ret.r_seed <- Some seed;
    ret.r_shards <- keep
  end;
  (reused, shards - reused)

let counted f =
  let sink = Gap_obs.Obs.recorder () in
  let r = Gap_obs.Obs.with_sink sink f in
  ( r,
    ( Gap_obs.Obs.counter_value sink "mc.shards_reused",
      Gap_obs.Obs.counter_value sink "mc.shards_drawn" ) )

let oracle_max_dies = (70 * 1024) + 300
let oracle_models = [| V.make V.mature; V.make ~fab_mean:V.best_fab V.new_process |]

let oracle_refs = Hashtbl.create 8

let oracle_ref seed m =
  match Hashtbl.find_opt oracle_refs (seed, m) with
  | Some r -> r
  | None ->
      let r =
        reference ~seed ~model:oracle_models.(m) ~nominal_mhz:250.
          ~dies:oracle_max_dies
      in
      Hashtbl.replace oracle_refs (seed, m) r;
      r

(* one step: simulate, then check the samples against the oracle and the
   reuse counters against the retention rule *)
let oracle_step ret (seed, m, dies, domains) =
  let r, counts =
    counted (fun () ->
        MC.simulate ~seed ~domains ~model:oracle_models.(m) ~nominal_mhz:250. ~dies ())
  in
  let expected = expect_counts ret ~seed ~dies in
  (same_bits r (oracle_ref seed m), counts = expected)

let test_mc_reuse_matches_oracle () =
  let ret = { r_seed = None; r_shards = 0; r_last = None } in
  List.iter
    (fun ((seed, m, dies, domains) as step) ->
      let bits, counts = oracle_step ret step in
      let what = Printf.sprintf "seed %Ld model %d dies %d domains %d" seed m dies domains in
      Alcotest.(check bool) (what ^ ": samples equal the oracle") true bits;
      Alcotest.(check bool) (what ^ ": reuse counters") true counts)
    [
      (* a first run keeps nothing; the second on its seed starts the stream *)
      (4242L, 0, 3000, 1);
      (* shrink, other model *)
      (4242L, 1, 1500, 2);
      (* grow past what is retained *)
      (4242L, 0, 9999, 4);
      (* switch seeds once, then back *)
      (4343L, 0, 5123, 2);
      (4242L, 1, 7001, 1);
      (* cross the 64-shard cap, then reuse all 64 of it *)
      (4242L, 1, (70 * 1024) + 300, 4);
      (4242L, 0, 66_001, 1);
      (4343L, 1, 777, 4);
      (* a second run in a row on the other seed replaces the stream *)
      (4343L, 1, 4000, 2);
      (4242L, 0, 3000, 4);
      (4242L, 1, 2049, 1);
    ]

let mc_reuse_oracle_property =
  (* random sequences over two seeds and two models; two one-die runs on an
     unrelated seed first make it the retained one, so every sequence
     starts from a known state *)
  let fresh = ref 90_000L in
  QCheck.Test.make ~name:"mc reuse equals the scalar oracle" ~count:6
    QCheck.(
      list_of_size (Gen.int_range 1 6)
        (quad (oneofl [ 4242L; 4343L ]) (int_bound 1)
           (int_range 1 oracle_max_dies) (oneofl [ 1; 2; 4 ])))
    (fun steps ->
      fresh := Int64.succ !fresh;
      for _ = 1 to 2 do
        ignore (MC.simulate ~seed:!fresh ~model:oracle_models.(0) ~nominal_mhz:250. ~dies:1 ())
      done;
      let ret = { r_seed = Some !fresh; r_shards = 1; r_last = Some !fresh } in
      List.for_all
        (fun (seed, m, dies, domains) ->
          (* the shrinker may step below [int_range]'s bound *)
          let bits, counts = oracle_step ret (seed, m, max 1 dies, domains) in
          bits && counts)
        steps)

let test_mc_reuse_after_worker_death () =
  (* a killed worker degrades as before, and the failed parallel run
     publishes nothing: the sequential rerun draws every shard again. A
     one-die run first makes the seed the previous one, so both attempts
     would keep what they draw. *)
  let seed = 4444L and dies = 5000 in
  let shards = (dies + 1023) / 1024 in
  let ref_ = reference ~seed ~model:oracle_models.(0) ~nominal_mhz:250. ~dies in
  let simulate domains () =
    MC.simulate ~seed ~domains ~model:oracle_models.(0) ~nominal_mhz:250. ~dies ()
  in
  ignore (MC.simulate ~seed ~model:oracle_models.(0) ~nominal_mhz:250. ~dies:1 ());
  let sink = Gap_obs.Obs.recorder () in
  let result, report =
    Gap_obs.Obs.with_sink sink (fun () ->
        Gap_resilience.Fault.with_plan
          [ Gap_resilience.Fault.spec "mc.worker" Gap_resilience.Stage_error.Worker_kill ]
          (simulate 4))
  in
  (match result with
  | Ok r ->
      Alcotest.(check bool) "fault fired" true
        (List.assoc_opt "mc.worker" report.Gap_resilience.Fault.injected = Some 1);
      Alcotest.(check int) "degraded" 1 (Gap_obs.Obs.counter_value sink "mc.degraded_runs");
      Alcotest.(check int) "nothing reused" 0 (Gap_obs.Obs.counter_value sink "mc.shards_reused");
      Alcotest.(check int) "both attempts drew every shard" (2 * shards)
        (Gap_obs.Obs.counter_value sink "mc.shards_drawn");
      Alcotest.(check bool) "degraded run equals the oracle" true (same_bits r ref_)
  | Error e -> Alcotest.failf "degradation failed: %s" (Printexc.to_string e));
  List.iter
    (fun d ->
      let r, (reused, drawn) = counted (simulate d) in
      Alcotest.(check bool) (Printf.sprintf "next call at %d domains equals the oracle" d) true
        (same_bits r ref_);
      Alcotest.(check (pair int int)) "next call reuses every shard" (shards, 0) (reused, drawn))
    [ 1; 2; 4 ]

let test_mc_retention_capped () =
  (* after a one-die run on its seed, a 1M-die run keeps 64 shards and
     draws the rest into worker scratch; run again, exactly 64 come back *)
  let seed = 4545L and dies = 1_000_000 in
  let shards = (dies + 1023) / 1024 in
  let model = oracle_models.(0) in
  ignore (MC.simulate ~seed ~model ~nominal_mhz:250. ~dies:1 ());
  let a = MC.simulate ~seed ~domains:2 ~model ~nominal_mhz:250. ~dies () in
  let b, counts =
    counted (fun () -> MC.simulate ~seed ~domains:2 ~model ~nominal_mhz:250. ~dies ())
  in
  Alcotest.(check (pair int int)) "64 reused, the rest drawn" (64, shards - 64) counts;
  Alcotest.(check bool) "samples identical" true (a.MC.fmax_mhz = b.MC.fmax_mhz);
  let _, counts =
    counted (fun () -> MC.simulate ~seed ~model ~nominal_mhz:250. ~dies:((64 * 1024) + 1) ())
  in
  Alcotest.(check (pair int int)) "one shard past the cap is drawn" (64, 1) counts

let test_mc_percentiles_ordered () =
  let r = run () in
  let p1 = MC.percentile r 1. and p50 = MC.percentile r 50. and p99 = MC.percentile r 99. in
  Alcotest.(check bool) "ordered" true (p1 < p50 && p50 < p99);
  Alcotest.(check bool) "spread positive" true (MC.spread r > 0.1)

(* The percentile as it was computed before tail queries became one
   pass: copy the samples, then median-of-three Hoare quickselect for each
   of the two bracketing ranks. Kept here as the reference. *)
let reference_percentile run p =
  let b = Gap_util.Stats.buf_copy run.MC.fmax_mhz in
  let n = Gap_util.Stats.buf_length b in
  let get i = Bigarray.Array1.get b i and set i v = Bigarray.Array1.set b i v in
  let swap i j =
    let t = get i in
    set i (get j);
    set j t
  in
  let select k =
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = !lo + ((!hi - !lo) / 2) in
      if get mid < get !lo then swap mid !lo;
      if get !hi < get !lo then swap !hi !lo;
      if get !hi < get mid then swap !hi mid;
      let pivot = get mid in
      let i = ref (!lo - 1) and j = ref (!hi + 1) and cut = ref (-1) in
      while !cut < 0 do
        incr i;
        while get !i < pivot do
          incr i
        done;
        decr j;
        while get !j > pivot do
          decr j
        done;
        if !i >= !j then cut := !j else swap !i !j
      done;
      if k <= !cut then hi := !cut else lo := !cut + 1
    done;
    get k
  in
  if n = 1 then get 0
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    let v_lo = select lo in
    let v_hi = if hi = lo then v_lo else select hi in
    v_lo +. (frac *. (v_hi -. v_lo))
  end

let mc_percentile_matches_reference_property =
  QCheck.Test.make ~name:"MC percentile = copy-and-quickselect reference" ~count:60
    QCheck.(
      triple (int_bound 1000) (int_range 1 40_000)
        (small_list (float_range 0. 100.)))
    (fun (seed, dies, ps) ->
      let r =
        MC.simulate ~seed:(Int64.of_int seed) ~model:(V.make V.mature)
          ~nominal_mhz:250. ~dies ()
      in
      List.for_all
        (fun p ->
          Int64.equal
            (Int64.bits_of_float (MC.percentile r p))
            (Int64.bits_of_float (reference_percentile r p)))
        (0. :: 0.5 :: 1. :: 3. :: 50. :: 97. :: 99. :: 99.9 :: 100. :: ps))

let test_fraction_above () =
  let r = run () in
  check_close "all dies above 0" 1e-9 1.0 (MC.fraction_above r 0.);
  check_close "none above 10x nominal" 1e-9 0.0 (MC.fraction_above r 2000.);
  let median = MC.percentile r 50. in
  check_close "half above median" 0.02 0.5 (MC.fraction_above r median)

let test_binning_counts () =
  let r = run ~dies:10000 () in
  let bins = B.bin r ~edges_mhz:[| 150.; 180.; 200.; 220. |] in
  let total = Array.fold_left ( + ) 0 bins.B.counts in
  Alcotest.(check int) "all dies binned" 10000 total;
  Alcotest.(check int) "bins = edges + 1" 5 (Array.length bins.B.counts)

let test_binning_monotone_yield () =
  let r = run () in
  let y150 = B.yield_at r ~mhz:150. and y200 = B.yield_at r ~mhz:200. and y250 = B.yield_at r ~mhz:250. in
  Alcotest.(check bool) "yield decreases with speed" true (y150 >= y200 && y200 >= y250)

let test_signoff_below_typical () =
  let model = V.make ~fab_mean:V.slow_fab V.mature in
  Alcotest.(check bool) "signoff below fab mean" true (V.signoff_speed model < V.slow_fab);
  Alcotest.(check bool) "signoff positive" true (V.signoff_speed model > 0.3)

let test_paper_ratio_bands () =
  let typical = run () in
  let slow_model = V.make ~fab_mean:V.slow_fab V.mature in
  let tvw = MC.percentile typical 50. /. (200. *. V.signoff_speed slow_model) in
  Alcotest.(check bool) "typical vs worst in 1.5..1.8" true (tvw > 1.5 && tvw < 1.8);
  let new_proc = run ~sigmas:V.new_process () in
  let top = B.top_bin_vs_typical new_proc in
  Alcotest.(check bool) "top bin in 1.15..1.45" true (top > 1.15 && top < 1.45);
  let gain = B.speed_test_gain typical in
  Alcotest.(check bool) "speed test gain in 1.2..1.5" true (gain > 1.2 && gain < 1.5);
  Alcotest.(check bool) "fab span 20-25%" true
    (B.fab_to_fab_span >= 0.20 && B.fab_to_fab_span <= 0.25)

let test_custom_vs_asic () =
  let custom = run ~fab:V.best_fab ~seed:2L () in
  let asic = run ~fab:V.slow_fab ~seed:3L () in
  let r = B.custom_best_vs_asic_worst ~custom ~asic in
  Alcotest.(check bool) "around 1.9x" true (r > 1.6 && r < 2.3)

let test_maturity_shrink () =
  check_close "5% shrink ~ 18-20%" 0.03 0.19 (M.shrink_speed_gain ~linear_shrink:0.05);
  check_close "no shrink no gain" 1e-9 0. (M.shrink_speed_gain ~linear_shrink:0.)

let test_maturity_spread () =
  Alcotest.(check bool) "initial spread 30-40%" true
    (M.initial_spread > 0.28 && M.initial_spread < 0.42)

let test_library_update_gain () =
  check_close "saturates at 20%" 1e-3 0.2 (M.library_update_gain ~months:1000.);
  Alcotest.(check bool) "monotone" true
    (M.library_update_gain ~months:3. < M.library_update_gain ~months:12.);
  check_close "zero at start" 1e-9 0. (M.library_update_gain ~months:0.)

(* --- economics --- *)

module E = Gap_variation.Economics

let mc_run = lazy (run ~dies:30000 ())

let test_economics_price_curve () =
  let p = E.default_pricing in
  let base = E.price_at p ~nominal_mhz:200. ~mhz:200. in
  check_close "nominal price" 1e-9 p.E.base_price base;
  Alcotest.(check bool) "faster sells higher" true
    (E.price_at p ~nominal_mhz:200. ~mhz:240. > base);
  Alcotest.(check bool) "floor at 20%" true
    (E.price_at p ~nominal_mhz:200. ~mhz:10. >= 0.2 *. p.E.base_price -. 1e-9)

let test_economics_single_rating_monotonic_yield () =
  let r = Lazy.force mc_run in
  let low = E.single_rating E.default_pricing r ~rating_mhz:150. in
  let high = E.single_rating E.default_pricing r ~rating_mhz:260. in
  Alcotest.(check bool) "higher rating, lower yield" true
    (high.E.sold_fraction < low.E.sold_fraction);
  Alcotest.(check bool) "low rating sells nearly all" true (low.E.sold_fraction > 0.95)

let test_economics_top_bin_unprofitable () =
  let r = Lazy.force mc_run in
  let top = MC.percentile r 99. in
  let res = E.single_rating E.default_pricing r ~rating_mhz:top in
  Alcotest.(check bool) "1% yield loses money" true (res.E.revenue_per_die < 0.)

let test_economics_binning_beats_single () =
  let r = Lazy.force mc_run in
  let best =
    E.best_single_rating E.default_pricing r
      ~candidates:(Array.init 25 (fun i -> 150. +. (5. *. float_of_int i)))
  in
  (* edges low enough that almost every die lands in some bin *)
  let binned = E.binned E.default_pricing r ~edges_mhz:[| 165.; 190.; 210. |] in
  Alcotest.(check bool) "binning wins" true
    (binned.E.revenue_per_die > best.E.revenue_per_die);
  Alcotest.(check bool) "best single rating is conservative" true
    (MC.fraction_above r best.E.rating_mhz > 0.6)

let test_die_yield () =
  check_close "zero area perfect yield" 1e-9 1.0 (E.die_yield ~area_mm2:0. ~defects_per_cm2:0.5);
  let small = E.die_yield ~area_mm2:10. ~defects_per_cm2:0.5 in
  let big = E.die_yield ~area_mm2:225. ~defects_per_cm2:0.5 in
  Alcotest.(check bool) "bigger die yields worse" true (big < small);
  Alcotest.(check bool) "alpha-sized die at 0.5 d/cm2 yields 30-70%" true
    (big > 0.3 && big < 0.7)

(* --- statistical STA --- *)

module Ssta = Gap_variation.Ssta

let ssta_netlist = lazy (
  let lib = Gap_liberty.Libgen.(make Gap_tech.Tech.asic_025um rich) in
  Gap_synth.Mapper.map_aig ~lib (Gap_datapath.Adders.cla_adder 8))

let test_ssta_deterministic () =
  let nl = Lazy.force ssta_netlist in
  let a = Ssta.simulate ~seed:9L ~samples:50 ~sigma_cell:0.05 nl in
  let b = Ssta.simulate ~seed:9L ~samples:50 ~sigma_cell:0.05 nl in
  check_close "same seed same mean" 1e-9 (Ssta.mean_period_ps a) (Ssta.mean_period_ps b)

let test_ssta_restores_netlist () =
  let nl = Lazy.force ssta_netlist in
  let before = (Gap_sta.Sta.analyze nl).Gap_sta.Sta.min_period_ps in
  ignore (Ssta.simulate ~samples:30 ~sigma_cell:0.08 nl);
  let after = (Gap_sta.Sta.analyze nl).Gap_sta.Sta.min_period_ps in
  check_close "netlist unchanged" 1e-9 before after

let test_ssta_mean_exceeds_nominal () =
  let nl = Lazy.force ssta_netlist in
  let r = Ssta.simulate ~samples:150 ~sigma_cell:0.06 nl in
  Alcotest.(check bool) "max-of-paths shifts the mean up" true (Ssta.mean_shift r >= -0.005);
  Alcotest.(check bool) "shift is moderate" true (Ssta.mean_shift r < 0.15)

let test_ssta_averaging_shrinks_sigma () =
  let nl = Lazy.force ssta_netlist in
  let r = Ssta.simulate ~samples:150 ~sigma_cell:0.08 nl in
  Alcotest.(check bool) "chip sigma below cell sigma" true
    (Ssta.relative_sigma r < 0.08);
  Alcotest.(check bool) "but not zero" true (Ssta.relative_sigma r > 0.005)

let test_ssta_zero_sigma_is_nominal () =
  let nl = Lazy.force ssta_netlist in
  let r = Ssta.simulate ~samples:10 ~sigma_cell:0.0 nl in
  check_close "no variation, no spread" 1e-9 0. (Ssta.sigma_period_ps r);
  check_close "mean = nominal" 1e-6 r.Ssta.nominal_ps (Ssta.mean_period_ps r)

let suite =
  [
    ("samples positive and centred", `Quick, test_sample_positive_and_centred);
    ("total sigma", `Quick, test_total_sigma);
    ("MC deterministic by seed", `Quick, test_mc_deterministic);
    ("MC identical across domains", `Quick, test_mc_domains_identical);
    QCheck_alcotest.to_alcotest mc_domains_identical_property;
    ("MC reuse equals the scalar oracle", `Quick, test_mc_reuse_matches_oracle);
    QCheck_alcotest.to_alcotest mc_reuse_oracle_property;
    ("MC reuse after worker death", `Quick, test_mc_reuse_after_worker_death);
    ("MC retains at most 64 shards", `Quick, test_mc_retention_capped);
    ("MC percentiles ordered", `Quick, test_mc_percentiles_ordered);
    QCheck_alcotest.to_alcotest mc_percentile_matches_reference_property;
    ("fraction above", `Quick, test_fraction_above);
    ("binning counts", `Quick, test_binning_counts);
    ("yield monotone", `Quick, test_binning_monotone_yield);
    ("signoff below typical", `Quick, test_signoff_below_typical);
    ("paper ratio bands", `Quick, test_paper_ratio_bands);
    ("custom vs asic", `Quick, test_custom_vs_asic);
    ("maturity shrink", `Quick, test_maturity_shrink);
    ("maturity spread", `Quick, test_maturity_spread);
    ("library update gain", `Quick, test_library_update_gain);
    ("economics: price curve", `Quick, test_economics_price_curve);
    ("economics: yield monotone in rating", `Quick, test_economics_single_rating_monotonic_yield);
    ("economics: top bin unprofitable", `Quick, test_economics_top_bin_unprofitable);
    ("economics: binning beats single rating", `Quick, test_economics_binning_beats_single);
    ("economics: die yield", `Quick, test_die_yield);
    ("ssta: deterministic", `Quick, test_ssta_deterministic);
    ("ssta: restores netlist", `Quick, test_ssta_restores_netlist);
    ("ssta: mean exceeds nominal", `Quick, test_ssta_mean_exceeds_nominal);
    ("ssta: averaging shrinks sigma", `Quick, test_ssta_averaging_shrinks_sigma);
    ("ssta: zero sigma nominal", `Quick, test_ssta_zero_sigma_is_nominal);
  ]
