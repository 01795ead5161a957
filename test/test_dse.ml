(* Tests for Gap_dse: parameter-space enumeration, content-addressed cache
   keys, the persistent LRU cache, the Domain worker pool, Pareto
   extraction, and the sweep engine's determinism/interruption contracts. *)

module Space = Gap_dse.Space
module Eval = Gap_dse.Eval
module Key = Gap_dse.Key
module Cache = Gap_dse.Cache
module Segstore = Gap_dse.Segstore
module Pool = Gap_dse.Pool
module Frontier = Gap_dse.Frontier
module Sweep = Gap_dse.Sweep
module Obs = Gap_obs.Obs
module Json = Gap_obs.Json
module Fault = Gap_resilience.Fault
module Stage_error = Gap_resilience.Stage_error

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      try Unix.rmdir path with Unix.Unix_error _ -> ()
    end
    else try Sys.remove path with Sys_error _ -> ()

let with_tmp_store f =
  let path = Filename.temp_file "gap_dse_test" ".store" in
  Sys.remove path;
  Fun.protect ~finally:(fun () -> rm_rf path) (fun () -> f path)

(* the (entries, flow) view of the on-disk store the old JSON read_store
   gave; fails the test on anything but a healthy store *)
let store_summary path =
  match Cache.inspect_store path with
  | Cache.Store i -> (i.Cache.si_entries, i.Cache.si_flow)
  | Cache.Missing m | Cache.Foreign m -> Alcotest.fail m
  | Cache.Corrupt e -> Alcotest.fail (Stage_error.to_string e)

let all_preset_points () =
  List.concat_map (fun (_, _, space) -> Space.enumerate space) Space.presets

(* --- space --- *)

let test_space_enumeration () =
  List.iter
    (fun (name, _, space) ->
      let pts = Space.enumerate space in
      Alcotest.(check int)
        (name ^ " size matches enumeration")
        (Space.size space) (List.length pts);
      Alcotest.(check bool)
        (name ^ " enumeration deterministic")
        true
        (pts = Space.enumerate space))
    Space.presets;
  let smoke = Option.get (Space.find_preset "smoke") in
  Alcotest.(check int) "smoke is 4 points" 4 (Space.size smoke);
  Alcotest.(check bool) "unknown preset" true (Space.find_preset "nope" = None)

let test_space_canonical_roundtrip () =
  List.iter
    (fun p ->
      match Space.point_of_json (Space.point_json p) with
      | Ok p' ->
          Alcotest.(check string)
            "canonical string survives JSON round-trip"
            (Space.to_canonical p) (Space.to_canonical p');
          Alcotest.(check bool) "point round-trips" true (p = p')
      | Error e -> Alcotest.fail e)
    (all_preset_points ())

(* --- the backend axis --- *)

let fpga_point = { Space.baseline with Space.backend = Space.Fpga }

let test_backend_axis_distinct () =
  Alcotest.(check bool) "canonical strings differ" false
    (Space.to_canonical Space.baseline = Space.to_canonical fpga_point);
  Alcotest.(check bool) "cache keys differ" false
    (Key.of_point Space.baseline = Key.of_point fpga_point);
  let backend_preset = Option.get (Space.find_preset "backend") in
  Alcotest.(check int) "backend preset is 8 points" 8 (Space.size backend_preset);
  let backends =
    List.sort_uniq compare
      (List.map (fun p -> p.Space.backend) (Space.enumerate backend_preset))
  in
  Alcotest.(check int) "both backends enumerated" 2 (List.length backends)

let test_point_of_json_backend_defaults_to_asic () =
  (* documents persisted before the axis existed carry no backend field *)
  let stripped =
    match Space.point_json Space.baseline with
    | Json.Obj kvs -> Json.Obj (List.filter (fun (k, _) -> k <> "backend") kvs)
    | j -> j
  in
  (match Space.point_of_json stripped with
  | Ok p -> Alcotest.(check bool) "defaults to Asic" true (p.Space.backend = Space.Asic)
  | Error e -> Alcotest.fail e);
  match Space.point_of_json (Space.point_json fpga_point) with
  | Ok p -> Alcotest.(check bool) "fpga round-trips" true (p.Space.backend = Space.Fpga)
  | Error e -> Alcotest.fail e

let test_eval_fpga_charm_scaling () =
  let asic = Eval.point Space.baseline in
  let fpga = Eval.point fpga_point in
  let r = Gap_tech.Charm.ratios Gap_tech.Charm.Logic in
  Alcotest.(check (float 1e-9)) "delay x freq gap"
    (asic.Eval.delay_ps *. r.Gap_tech.Charm.freq) fpga.Eval.delay_ps;
  Alcotest.(check (float 1e-9)) "area x area gap"
    (asic.Eval.area *. r.Gap_tech.Charm.area) fpga.Eval.area;
  Alcotest.(check (float 1e-9)) "power x power gap"
    (asic.Eval.power *. r.Gap_tech.Charm.dynamic_power) fpga.Eval.power;
  Alcotest.(check bool) "factors are backend-orthogonal" true
    (asic.Eval.factors = fpga.Eval.factors)

(* --- keys: collision-freedom and order-stability over every preset --- *)

let test_keys_distinct_and_stable () =
  let pts = all_preset_points () in
  let keys = List.map Key.of_point pts in
  let distinct_pts =
    List.sort_uniq compare (List.map Space.to_canonical pts)
  in
  Alcotest.(check int)
    "no key collisions across all preset points"
    (List.length distinct_pts)
    (List.length (List.sort_uniq compare keys));
  Alcotest.(check bool)
    "keys stable on recomputation" true
    (keys = List.map Key.of_point pts)

(* --- eval --- *)

let paper_product = 4.00 *. 1.25 *. 1.25 *. 1.50 *. 1.90

let test_eval_corner_composite () =
  let m = Eval.point Space.custom_corner in
  (* every factor sits exactly at its paper anchor at the corner *)
  Alcotest.(check (float 0.)) "corner composite is exactly x17.8125"
    paper_product m.Eval.composite;
  List.iter2
    (fun (name, expect) (name', got) ->
      Alcotest.(check string) "factor order" name name';
      Alcotest.(check (float 0.)) (name ^ " anchored") expect got)
    [
      ("pipelining", 4.00);
      ("floorplanning", 1.25);
      ("sizing", 1.25);
      ("domino", 1.50);
      ("variation", 1.90);
    ]
    m.Eval.factors

let test_eval_baseline_composite () =
  let m = Eval.point Space.baseline in
  Alcotest.(check (float 0.)) "baseline composite is 1" 1. m.Eval.composite;
  Alcotest.(check (float 0.)) "baseline area is 1" 1. m.Eval.area;
  Alcotest.(check (float 0.)) "baseline power is 1" 1. m.Eval.power

let test_eval_deterministic_and_json () =
  List.iter
    (fun p ->
      let a = Eval.point p and b = Eval.point p in
      Alcotest.(check bool) "bit-equal on re-evaluation" true (a = b);
      match Eval.of_json (Eval.to_json a) with
      | Ok a' -> Alcotest.(check bool) "metrics JSON round-trip" true (a = a')
      | Error e -> Alcotest.fail e)
    (Space.enumerate (Option.get (Space.find_preset "smoke")))

let test_eval_rejects_malformed () =
  Alcotest.check_raises "depth 0"
    (Invalid_argument "Gap_dse.Eval.point: depth < 1") (fun () ->
      ignore (Eval.point { Space.baseline with Space.depth = 0 }))

(* --- cache --- *)

let test_cache_lru_eviction () =
  let c = Cache.create ~capacity:2 () in
  let p1 = Space.baseline in
  let p2 = { Space.baseline with Space.depth = 2 } in
  let p3 = { Space.baseline with Space.depth = 3 } in
  Cache.add c p1 (Eval.point p1);
  Cache.add c p2 (Eval.point p2);
  ignore (Cache.find c p1);
  (* p2 is now least-recently used; adding p3 must evict it *)
  Cache.add c p3 (Eval.point p3);
  let s = Cache.stats c in
  Alcotest.(check int) "capacity held" 2 s.Cache.entries;
  Alcotest.(check int) "one eviction" 1 s.Cache.evictions;
  Alcotest.(check bool) "p1 survived" true (Cache.find c p1 <> None);
  Alcotest.(check bool) "p2 evicted" true (Cache.find c p2 = None)

let test_cache_persistence_and_clear () =
  with_tmp_store (fun path ->
      let c = Cache.create ~store:path () in
      Cache.add c Space.baseline (Eval.point Space.baseline);
      Cache.flush c;
      let n, flow = store_summary path in
      Alcotest.(check int) "one entry on disk" 1 n;
      Alcotest.(check string) "current flow" Eval.flow_version flow;
      let c2 = Cache.create ~store:path () in
      Alcotest.(check bool) "entry reloads" true
        (Cache.find c2 Space.baseline <> None);
      Cache.clear path;
      let n, _ = store_summary path in
      Alcotest.(check int) "cleared" 0 n;
      let c3 = Cache.create ~store:path () in
      Alcotest.(check bool) "cold after clear" true
        (Cache.find c3 Space.baseline = None))

(* The LRU victim rule, differentially: the O(n) scan the cache used to
   run is the reference. Every live key carries its last-use tick (entries
   loaded from a store carry tick 0) and the victim is the least
   (tick, key). Random add/find/flush/reload sequences on a small capacity
   must evict the same keys, so after every step the live set and the
   eviction count agree with the reference. *)
type lru_ref = {
  ticks : (string, int) Hashtbl.t;
  mutable now : int;
  mutable evicted : int;
}

let ref_evict m =
  let better (bk, bt) (k, t) = bt < t || (bt = t && String.compare bk k <= 0) in
  let victim =
    Hashtbl.fold
      (fun k t acc ->
        match acc with Some b when better b (k, t) -> acc | _ -> Some (k, t))
      m.ticks None
  in
  Option.iter
    (fun (k, _) ->
      Hashtbl.remove m.ticks k;
      m.evicted <- m.evicted + 1)
    victim

let ref_touch m k =
  m.now <- m.now + 1;
  Hashtbl.replace m.ticks k m.now

type cache_op = Add of int | Find of int | Flush | Reload

let cache_op_gen =
  QCheck.Gen.(
    frequency
      [
        (6, map (fun i -> Add i) (int_bound 11));
        (4, map (fun i -> Find i) (int_bound 11));
        (1, return Flush);
        (1, return Reload);
      ])

let show_cache_op = function
  | Add i -> Printf.sprintf "add %d" i
  | Find i -> Printf.sprintf "find %d" i
  | Flush -> "flush"
  | Reload -> "reload"

let cache_lru_matches_scan_property =
  let metrics = lazy (Eval.point Space.baseline) in
  let point i = { Space.baseline with Space.depth = i + 1 } in
  QCheck.Test.make ~name:"cache evicts exactly the O(n) scan's victims" ~count:40
    QCheck.(
      pair (int_range 1 5)
        (make
           ~print:(fun ops -> String.concat "; " (List.map show_cache_op ops))
           Gen.(list_size (int_range 1 60) cache_op_gen)))
    (fun (capacity, ops) ->
      with_tmp_store (fun path ->
          let m = { ticks = Hashtbl.create 16; now = 0; evicted = 0 } in
          let c = ref (Cache.create ~capacity ~store:path ()) in
          let live_keys () =
            List.sort compare
              (List.map (fun (p, _) -> Key.of_point p) (Cache.entries !c))
          in
          let ref_keys () =
            List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) m.ticks [])
          in
          List.for_all
            (fun op ->
              let agrees =
                match op with
                | Add i ->
                    let k = Key.of_point (point i) in
                    if not (Hashtbl.mem m.ticks k) && Hashtbl.length m.ticks >= capacity
                    then ref_evict m;
                    ref_touch m k;
                    Cache.add !c (point i) (Lazy.force metrics);
                    true
                | Find i ->
                    let k = Key.of_point (point i) in
                    let present = Hashtbl.mem m.ticks k in
                    if present then ref_touch m k;
                    Cache.find !c (point i) <> None = present
                | Flush ->
                    Cache.flush !c;
                    true
                | Reload ->
                    (* what the store holds is the reference's live set, all
                       at tick 0, trimmed to capacity by the same scan *)
                    Cache.flush !c;
                    let stored =
                      if Sys.file_exists path then begin
                        let s, records, _ =
                          Segstore.open_store ~flow:Eval.flow_version path
                        in
                        Segstore.close s;
                        List.map fst records
                      end
                      else []
                    in
                    Hashtbl.reset m.ticks;
                    List.iter (fun k -> Hashtbl.replace m.ticks k 0) stored;
                    m.now <- 0;
                    m.evicted <- 0;
                    while Hashtbl.length m.ticks > capacity do
                      ref_evict m
                    done;
                    c := Cache.create ~capacity ~store:path ();
                    true
              in
              agrees
              && live_keys () = ref_keys ()
              && (Cache.stats !c).Cache.evictions = m.evicted)
            ops))

let replace_substring ~from ~into s =
  let fl = String.length from in
  let buf = Buffer.create (String.length s) in
  let i = ref 0 in
  while !i <= String.length s - fl do
    if String.sub s !i fl = from then begin
      Buffer.add_string buf into;
      i := !i + fl
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.add_string buf (String.sub s !i (String.length s - !i));
  Buffer.contents buf

(* Records are assembled around metrics documents: rendered by the caller
   at add time, kept by an entry from its first hit, or rendered at flush
   or compaction. However a record was written, its payload must be the
   one [Json.to_string] gives for the whole object, and a hit's document
   the one it gives for the metrics. The store sees a first flush, an
   append, a compaction, re-adds and evictions (capacity 8 of 15 points),
   then is reopened. *)
let test_store_records_byte_identical () =
  with_tmp_store (fun path ->
      let scored =
        Space.enumerate (Option.get (Space.find_preset "depth-x-sizing"))
        |> List.map (fun p -> (Key.of_point p, p, Eval.point p))
        |> Array.of_list
      in
      let doc m = Json.to_string (Eval.to_json m) in
      let reference = Hashtbl.create 16 in
      Array.iter
        (fun (k, p, m) ->
          Hashtbl.replace reference k
            (Json.to_string
               (Json.Obj [ ("point", Space.point_json p); ("metrics", Eval.to_json m) ])))
        scored;
      let c = ref (Cache.create ~capacity:8 ~store:path ()) in
      let add i =
        let k, p, m = scored.(i) in
        if i mod 2 = 0 then Cache.add_keyed ~doc:(doc m) !c k p m else Cache.add !c p m
      in
      let hit i =
        let k, _, m = scored.(i) in
        match Cache.find_doc !c k with
        | Some (_, d) -> Alcotest.(check string) (Printf.sprintf "hit %d document" i) (doc m) d
        | None -> ()
      in
      let adds lo hi = for i = lo to hi do add i done in
      let hits lo hi = for i = lo to hi do hit i; hit i done in
      adds 0 4;
      Cache.flush !c;
      hits 0 4;
      adds 5 9;
      hits 2 7;
      Cache.flush !c;
      hits 3 9;
      Cache.compact !c;
      adds 10 14;
      hits 9 12;
      adds 11 12;
      Cache.flush !c;
      let s, records, _ = Segstore.open_store ~flow:Eval.flow_version path in
      Segstore.close s;
      Alcotest.(check bool) "the store holds records" true (List.length records >= 8);
      List.iter
        (fun (k, payload) ->
          Alcotest.(check string) ("record " ^ k) (Hashtbl.find reference k) payload)
        records;
      c := Cache.create ~capacity:8 ~store:path ();
      hits 0 14)

(* Without a store no flush ever runs, so an add must not queue a record
   for one: 20,000 adds to a 16-entry cache keep 16 entries alive, not
   20,000 queued ones. *)
let test_storeless_cache_stays_bounded () =
  let c = Cache.create ~capacity:16 () in
  let m = Eval.point Space.baseline in
  (* [Gc.stat] runs a full major collection first *)
  let live () = (Gc.stat ()).Gc.live_words in
  let add i =
    let p = { Space.baseline with Space.sigma_scale = 1. +. (1e-6 *. float_of_int i) } in
    Cache.add_keyed ~doc:(Json.to_string (Eval.to_json m)) c (Key.of_point p) p m
  in
  for i = 1 to 100 do add i done;
  let before = live () in
  for i = 101 to 20_100 do add i done;
  let grown = live () - before in
  Alcotest.(check int) "entries" 16 (Cache.stats c).Cache.entries;
  if grown > 100_000 then Alcotest.failf "the heap grew by %d words over 20,000 adds" grown

let test_cache_flow_version_mismatch_reads_cold () =
  with_tmp_store (fun path ->
      let c = Cache.create ~store:path () in
      Cache.add c Space.baseline (Eval.point Space.baseline);
      Cache.flush c;
      (* age the store: doctor the MANIFEST flow to an older version *)
      let manifest = Filename.concat path Segstore.manifest_name in
      let ic = open_in_bin manifest in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      let stale = replace_substring ~from:Eval.flow_version ~into:"gap-dse-0" s in
      Gap_util.Atomic_io.write_string manifest stale;
      let c2 = Cache.create ~store:path () in
      Alcotest.(check int) "stale store loads empty" 0 (Cache.stats c2).Cache.entries;
      Alcotest.(check bool) "lookup misses" true
        (Cache.find c2 Space.baseline = None);
      (* the next flush rewrites the store at the current version *)
      Cache.add c2 Space.baseline (Eval.point Space.baseline);
      Cache.flush c2;
      let n, flow = store_summary path in
      Alcotest.(check string) "rewritten at current flow" Eval.flow_version flow;
      Alcotest.(check int) "only the fresh entry survives" 1 n)

let test_pre_backend_store_not_served () =
  (* a store written at the pre-backend-axis flow version must read cold:
     its keys were hashed without the backend field, and serving them into
     the enlarged space would alias ASIC results onto FPGA points *)
  with_tmp_store (fun path ->
      let c = Cache.create ~store:path () in
      Cache.add c Space.baseline (Eval.point Space.baseline);
      Cache.flush c;
      let manifest = Filename.concat path Segstore.manifest_name in
      let ic = open_in_bin manifest in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check bool) "current flow is gap-dse-2" true
        (Eval.flow_version = "gap-dse-2");
      let stale = replace_substring ~from:"gap-dse-2" ~into:"gap-dse-1" s in
      Gap_util.Atomic_io.write_string manifest stale;
      let c2 = Cache.create ~store:path () in
      Alcotest.(check bool) "pre-backend entry not served" true
        (Cache.find c2 Space.baseline = None);
      Alcotest.(check bool) "fpga point also cold" true
        (Cache.find c2 fpga_point = None))

(* a file where the store directory belongs loads cold and the first flush
   replaces it: garbage, and a well-formed current-flow document in the
   retired JSON store format alike *)
let test_cache_corrupt_store_reads_cold () =
  let old = { Space.baseline with Space.depth = 2 } in
  let json_store =
    Json.to_string ~pretty:true
      (Json.Obj
         [
           ("version", Json.Int 1);
           ("flow", Json.Str Eval.flow_version);
           ( "entries",
             Json.List
               [
                 Json.Obj
                   [
                     ("key", Json.Str (Key.of_point old));
                     ("point", Space.point_json old);
                     ("metrics", Eval.to_json (Eval.point old));
                   ];
               ] );
         ])
  in
  List.iter
    (fun (what, doc) ->
      with_tmp_store (fun path ->
          Gap_util.Atomic_io.write_string path doc;
          let c = Cache.create ~store:path () in
          Alcotest.(check int) (what ^ " loads empty") 0 (Cache.stats c).Cache.entries;
          Alcotest.(check bool) (what ^ " serves nothing") true (Cache.find c old = None);
          (match Cache.inspect_store path with
          | Cache.Foreign _ -> ()
          | _ -> Alcotest.fail (what ^ " not reported as foreign"));
          Cache.add c Space.baseline (Eval.point Space.baseline);
          Cache.flush c;
          let n, flow = store_summary path in
          Alcotest.(check int) (what ^ " replaced by the new entry alone") 1 n;
          Alcotest.(check string) (what ^ " replaced at the current flow") Eval.flow_version flow;
          let c2 = Cache.create ~store:path () in
          Alcotest.(check bool) (what ^ ": new entry reloads") true
            (Cache.find c2 Space.baseline <> None);
          Alcotest.(check bool) (what ^ ": old entry stays gone") true
            (Cache.find c2 old = None)))
    [ ("corrupt store", "{not json"); ("JSON-format store", json_store) ]

(* --- pool --- *)

let mc_model = Gap_variation.Model.make Gap_variation.Model.mature

(* MC-weighted job: heavy enough that spawned workers reliably claim work *)
let mc_job dies =
  Gap_variation.Montecarlo.percentile
    (Gap_variation.Montecarlo.simulate ~model:mc_model ~nominal_mhz:250. ~dies ())
    50.

let test_pool_matches_sequential () =
  let jobs = Array.init 12 (fun i -> 1000 + (137 * i)) in
  let expected = Array.map (fun d -> Ok (mc_job d)) jobs in
  List.iter
    (fun domains ->
      let got = Pool.map ~domains ~stage:"dse.eval" mc_job jobs in
      Alcotest.(check bool)
        (Printf.sprintf "domains=%d bit-identical to sequential" domains)
        true (got = expected))
    [ 1; 2; 4 ]

let test_pool_worker_kill_degrades_without_losing_points () =
  let jobs = Array.init 12 (fun i -> 1000 + (137 * i)) in
  let expected = Array.map (fun d -> Ok (mc_job d)) jobs in
  let sink = Obs.recorder () in
  let result, report =
    Fault.with_plan
      [ Fault.spec "dse.worker" Stage_error.Worker_kill ]
      (fun () ->
        Obs.with_sink sink (fun () -> Pool.map ~domains:4 ~stage:"dse.eval" mc_job jobs))
  in
  (match List.assoc_opt "dse.worker" report.Fault.injected with
  | Some n -> Alcotest.(check bool) "fault injected" true (n >= 1)
  | None -> Alcotest.fail "dse.worker site never injected");
  Alcotest.(check bool) "pool degraded" true
    (Obs.counter_value sink "dse.pool.degraded" >= 1);
  match result with
  | Ok got ->
      Alcotest.(check bool) "no point lost, results bit-identical" true
        (got = expected)
  | Error e -> Alcotest.failf "pool raised: %s" (Printexc.to_string e)

(* --- frontier --- *)

let test_pareto_three_point_fixture () =
  let o d a p = { Frontier.delay_ps = d; area = a; power = p } in
  let pts =
    [
      ("fast-big", o 1. 3. 1.);
      ("balanced", o 2. 2. 2.);
      ("slow-small", o 3. 1. 3.);
      ("dominated", o 3. 3. 3.);
    ]
  in
  let front = List.map fst (Frontier.pareto pts) in
  Alcotest.(check (list string))
    "three survivors in input order"
    [ "fast-big"; "balanced"; "slow-small" ] front;
  Alcotest.(check bool) "dominates is strict" false
    (Frontier.dominates (o 1. 1. 1.) (o 1. 1. 1.));
  let tied = [ ("a", o 1. 1. 1.); ("b", o 1. 1. 1.) ] in
  Alcotest.(check int) "equal points both stay" 2
    (List.length (Frontier.pareto tied))

(* --- sweep --- *)

let smoke = Option.get (Space.find_preset "smoke")

let test_sweep_cold_warm_byte_identity () =
  with_tmp_store (fun path ->
      let cold = Sweep.run ~store:path ~name:"smoke" smoke in
      let warm = Sweep.run ~store:path ~name:"smoke" smoke in
      Alcotest.(check string) "tables byte-identical"
        (Sweep.table cold) (Sweep.table warm);
      Alcotest.(check int) "cold run all misses" 4 cold.Sweep.stats.Cache.misses;
      Alcotest.(check int) "cold run no hits" 0 cold.Sweep.stats.Cache.hits;
      Alcotest.(check int) "warm run all hits" 4 warm.Sweep.stats.Cache.hits;
      Alcotest.(check int) "warm run no misses" 0 warm.Sweep.stats.Cache.misses;
      Alcotest.(check (float 0.)) "warm hit rate 1.0" 1.
        (Cache.hit_rate warm.Sweep.stats))

let test_sweep_hit_counters_in_obs () =
  with_tmp_store (fun path ->
      ignore (Sweep.run ~store:path ~name:"smoke" smoke);
      let sink = Obs.recorder () in
      ignore (Obs.with_sink sink (fun () -> Sweep.run ~store:path ~name:"smoke" smoke));
      Alcotest.(check int) "dse.cache.hit counter" 4
        (Obs.counter_value sink "dse.cache.hit");
      Alcotest.(check int) "dse.cache.miss counter" 0
        (Obs.counter_value sink "dse.cache.miss");
      Alcotest.(check int) "dse.pool.jobs counts misses only" 0
        (Obs.counter_value sink "dse.pool.jobs"))

let test_sweep_domains_identical () =
  let t domains = Sweep.table (Sweep.run ~domains ~name:"smoke" smoke) in
  let d1 = t 1 in
  Alcotest.(check string) "domains 2 = domains 1" d1 (t 2);
  Alcotest.(check string) "domains 4 = domains 1" d1 (t 4)

let test_sweep_interrupt_and_resume () =
  with_tmp_store (fun path ->
      (* a killed sweep = one that stopped after k fresh evaluations with a
         flush after each; the store must be a valid, loadable document *)
      let partial = Sweep.run ~store:path ~stop_after:2 ~name:"smoke" smoke in
      Alcotest.(check int) "partial run covers 2 points" 2
        (Array.length partial.Sweep.points);
      let n, flow = store_summary path in
      Alcotest.(check int) "store holds the 2 finished points" 2 n;
      Alcotest.(check string) "valid current-flow store" Eval.flow_version flow;
      (* resume: the full sweep completes and matches an uninterrupted one *)
      let resumed = Sweep.run ~store:path ~name:"smoke" smoke in
      Alcotest.(check int) "resume served 2 from the store" 2
        resumed.Sweep.stats.Cache.hits;
      Alcotest.(check int) "resume evaluated the remaining 2" 2
        resumed.Sweep.stats.Cache.misses;
      let fresh = Sweep.run ~name:"smoke" smoke in
      Alcotest.(check string) "resumed table byte-identical to fresh"
        (Sweep.table fresh) (Sweep.table resumed))

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_pareto_contains_paper_composite () =
  let space = Option.get (Space.find_preset "factor-axes") in
  let r = Sweep.run ~name:"factor-axes" space in
  let front = Sweep.pareto r in
  Alcotest.(check bool) "corner point on the frontier" true
    (List.exists
       (fun ((p, _), _) ->
         Space.to_canonical p = Space.to_canonical Space.custom_corner)
       front);
  let tbl = Sweep.pareto_table r in
  Alcotest.(check bool) "frontier renders the paper's x17.8" true
    (contains ~sub:"x17.8" tbl);
  match
    List.find_opt
      (fun ((p, _), _) ->
        Space.to_canonical p = Space.to_canonical Space.custom_corner)
      front
  with
  | Some ((_, m), _) ->
      Alcotest.(check (float 0.)) "corner carries the exact x17.8125 composite"
        paper_product m.Eval.composite
  | None -> Alcotest.fail "corner missing from frontier"

let test_sweep_json_document () =
  with_tmp_store (fun path ->
      let r = Sweep.run ~store:path ~name:"smoke" smoke in
      let doc = Sweep.to_json r in
      (* must be a valid, self-contained document *)
      match Json.of_string (Json.to_string doc) with
      | Error e -> Alcotest.fail e
      | Ok doc' -> (
          Alcotest.(check bool) "round-trips" true (doc = doc');
          match (Json.member "cache" doc, Json.member "points" doc) with
          | Some cache, Some (Json.List pts) ->
              Alcotest.(check int) "all points present" 4 (List.length pts);
              Alcotest.(check bool) "cache accounting present" true
                (Json.member "hit_rate" cache <> None)
          | _ -> Alcotest.fail "missing cache/points members"))

let suite =
  [
    ("space enumeration", `Quick, test_space_enumeration);
    ("space canonical round-trip", `Quick, test_space_canonical_roundtrip);
    ("backend axis distinct points/keys", `Quick, test_backend_axis_distinct);
    ("backend field defaults to asic", `Quick, test_point_of_json_backend_defaults_to_asic);
    ("fpga eval applies Charm ratios", `Quick, test_eval_fpga_charm_scaling);
    ("pre-backend store reads cold", `Quick, test_pre_backend_store_not_served);
    ("keys distinct and stable", `Quick, test_keys_distinct_and_stable);
    ("eval corner composite x17.8", `Quick, test_eval_corner_composite);
    ("eval baseline composite 1.0", `Quick, test_eval_baseline_composite);
    ("eval deterministic + JSON", `Quick, test_eval_deterministic_and_json);
    ("eval rejects malformed", `Quick, test_eval_rejects_malformed);
    ("cache LRU eviction", `Quick, test_cache_lru_eviction);
    ("cache persistence + clear", `Quick, test_cache_persistence_and_clear);
    QCheck_alcotest.to_alcotest cache_lru_matches_scan_property;
    ("cache stale flow reads cold", `Quick, test_cache_flow_version_mismatch_reads_cold);
    ("cache records byte-identical", `Quick, test_store_records_byte_identical);
    ("storeless cache stays bounded", `Quick, test_storeless_cache_stays_bounded);
    ("cache corrupt store reads cold", `Quick, test_cache_corrupt_store_reads_cold);
    ("pool matches sequential at 1/2/4 domains", `Quick, test_pool_matches_sequential);
    ("pool worker kill degrades, loses nothing", `Quick,
     test_pool_worker_kill_degrades_without_losing_points);
    ("pareto fixture", `Quick, test_pareto_three_point_fixture);
    ("sweep cold/warm byte-identity", `Quick, test_sweep_cold_warm_byte_identity);
    ("sweep hit accounting via Gap_obs", `Quick, test_sweep_hit_counters_in_obs);
    ("sweep identical across domains", `Quick, test_sweep_domains_identical);
    ("sweep interrupt + resume", `Quick, test_sweep_interrupt_and_resume);
    ("pareto reproduces x17.8", `Slow, test_pareto_contains_paper_composite);
    ("sweep JSON document", `Quick, test_sweep_json_document);
  ]
