module Obs = Gap_obs.Obs
module Stats = Gap_util.Stats

type run = {
  nominal_mhz : float;
  fmax_mhz : Stats.buf;
  model : Model.t;
}

(* Dies are sampled in fixed-size shards, each from its own RNG split off the
   master seed in shard order. The shard layout depends only on [dies], never
   on [domains], so the sample buffer is byte-identical for any worker count.
   Workers claim work at *chunk* granularity — up to [max_chunk_shards]
   shards per claim — so the shared counter is touched an order of magnitude
   less often than a per-shard claim would, and each claim covers a
   contiguous cache-line-aligned span of the float64 buffer (one shard is
   8 KiB, a multiple of any line size), keeping false sharing off the write
   path. Chunk granularity affects only which worker writes which shard,
   never the values, so it may depend on [domains] freely. *)
let shard_size = 1024
let max_chunk_shards = 8

(* Standard normals retained across runs. A shard's normals depend only on
   the master seed and the shard index (shard [s] draws from the [s]-th
   split of the seed), never on the model, [dies] or [domains], so a run on
   the retained seed redraws nothing already kept: it reads the kept
   normals and runs only the per-die fmax arithmetic. Retained shards are
   drawn whole even when a run ends mid-shard: [normal_std_fill] fills in
   pairs and [draws_per_die * len] is even, so a short shard's draws are a
   prefix of the full shard's and one stream serves every die count.

   A seed's normals are kept from its second run in a row on: a run on a
   seed used once — each of E9's arms has its own — allocates nothing to
   keep, and a run on the seed just used (every binned DSE point shares
   [Eval]'s) starts the stream. Alternating seeds then allocate nothing,
   where replacing the stream on every run would allocate up to 2 MiB
   each time.

   The cap bounds the memory at 64 shards — 65,536 dies, 2 MiB of float64
   outside the OCaml heap — which covers every preset (the [variation]
   grid tops out at 32,000 dies) and every experiment (X2 runs 30,000).
   Past the cap a run draws into its worker's scratch, so a 1M-die point
   stays a long evaluation. *)
let max_retained_shards = 64
let shard_draws = Model.draws_per_die * shard_size

(* [shards.(s)] holds the [shard_draws] normals of shard [s] of [seed]'s
   stream. Published only whole, after every worker of a successful run has
   joined, and never mutated once published: readers on any domain see
   complete shards. *)
type stream = { seed : int64; shards : Stats.buf array }

let no_shard = Stats.buf_create 0
let retained = Atomic.make { seed = 0L; shards = [||] }
let last_seed : int64 option Atomic.t = Atomic.make None

(* A kept run on another seed replaces the stream; a run on the same seed
   keeps whichever of the two streams is longer. *)
let rec publish stream =
  let cur = Atomic.get retained in
  let covered =
    Int64.equal cur.seed stream.seed
    && Array.length cur.shards >= Array.length stream.shards
  in
  if (not covered) && not (Atomic.compare_and_set retained cur stream) then
    publish stream

let copy_normals (z : float array) (dst : Stats.buf) n =
  for i = 0 to n - 1 do
    Bigarray.Array1.unsafe_set dst i (Array.unsafe_get z i)
  done

(* Per-worker state: the normal-draw scratch, the buffer a shard this run
   does not keep is copied into, and local tallies flushed in one batched,
   mutex-protected observation at the end of the worker's run instead of
   taking the recorder lock once per shard. *)
type worker = {
  draws : float array;
  unkept : Stats.buf;
  times : float array;
  mutable n_times : int;
  mutable claimed : int;
  mutable reused : int;
  mutable drawn : int;
}

let simulate_body ~seed ~domains ~model ~nominal_mhz ~dies =
  Gap_resilience.Fault.point "mc.budget";
  Gap_resilience.Supervisor.poll_deadline ~stage:"mc.simulate";
  let master = Gap_util.Rng.create ~seed () in
  let num_shards = (dies + shard_size - 1) / shard_size in
  let workers = max 1 (min domains num_shards) in
  let chunk_shards =
    (* big enough to keep the shared counter off the hot path, small enough
       that every worker sees at least about two claims to steal *)
    max 1
      (min max_chunk_shards
         ((num_shards + (2 * workers) - 1) / (2 * workers)))
  in
  let num_chunks = (num_shards + chunk_shards - 1) / chunk_shards in
  let obs_on = Obs.enabled () in
  if obs_on then begin
    Obs.annotate
      [
        ("dies", Gap_obs.Json.Int dies);
        ("shards", Gap_obs.Json.Int num_shards);
        ("chunks", Gap_obs.Json.Int num_chunks);
        ("workers", Gap_obs.Json.Int workers);
      ];
    Obs.incr ~by:dies "mc.samples"
  end;
  let shard_rngs = Array.init num_shards (fun _ -> Gap_util.Rng.split master) in
  let fmax_mhz = Stats.buf_create dies in
  let cached =
    let r = Atomic.get retained in
    if Int64.equal r.seed seed then r.shards else [||]
  in
  let admit =
    let prev = Atomic.exchange last_seed (Some seed) in
    Array.length cached > 0 || prev = Some seed
  in
  (* shards [Array.length cached, n_keep) are drawn and retained by this
     run; each slot of [kept] is written by the one worker that ran it *)
  let n_keep = if admit then min num_shards max_retained_shards else 0 in
  let grows = n_keep > Array.length cached in
  let kept =
    if grows then
      Array.init n_keep (fun s ->
          if s < Array.length cached then cached.(s) else no_shard)
    else cached
  in
  let new_worker () =
    {
      draws =
        (if num_shards > Array.length cached then Array.make shard_draws 0.
         else [||]);
      unkept =
        (if num_shards > n_keep then Stats.buf_create shard_draws else no_shard);
      times = (if obs_on then Array.make num_shards 0. else [||]);
      n_times = 0;
      claimed = 0;
      reused = 0;
      drawn = 0;
    }
  in
  let run_shard w s =
    Gap_resilience.Supervisor.poll_deadline ~stage:"mc.simulate";
    let t0 = if obs_on then Obs.now_ns () else 0L in
    let lo = s * shard_size in
    let len = min shard_size (dies - lo) in
    let z =
      if s < Array.length cached then begin
        w.reused <- w.reused + 1;
        cached.(s)
      end
      else begin
        w.drawn <- w.drawn + 1;
        let n = if s < n_keep then shard_draws else Model.draws_per_die * len in
        Gap_util.Rng.normal_std_fill shard_rngs.(s) w.draws ~pos:0 ~len:n;
        let dst =
          if s < n_keep then begin
            let b = Stats.buf_create shard_draws in
            kept.(s) <- b;
            b
          end
          else w.unkept
        in
        copy_normals w.draws dst n;
        dst
      end
    in
    (* [lo, lo+len) is within [0, dies) by construction *)
    Model.fill_fmax model ~z ~out:fmax_mhz ~pos:lo ~len ~nominal_mhz;
    if obs_on then begin
      w.times.(w.n_times) <- Int64.to_float (Int64.sub (Obs.now_ns ()) t0);
      w.n_times <- w.n_times + 1
    end
  in
  let flush_worker_obs w =
    if obs_on then begin
      Obs.observe_batch "mc.shard_ns" (Array.sub w.times 0 w.n_times);
      Obs.incr ~by:w.claimed "mc.chunks_claimed";
      Obs.incr ~by:w.reused "mc.shards_reused";
      Obs.incr ~by:w.drawn "mc.shards_drawn";
      Obs.observe "mc.worker_chunks" (float_of_int w.claimed)
    end
  in
  let run_chunk w c =
    w.claimed <- w.claimed + 1;
    let s_lo = c * chunk_shards in
    let s_hi = min num_shards (s_lo + chunk_shards) in
    for s = s_lo to s_hi - 1 do
      run_shard w s
    done
  in
  if workers = 1 then begin
    let w = new_worker () in
    for c = 0 to num_chunks - 1 do
      run_chunk w c
    done;
    flush_worker_obs w
  end
  else begin
    let next = Atomic.make 0 in
    let work ~fault_site () =
      (* the worker-death fault site lives only on the parallel path, so the
         sequential fallback in [simulate] replays the run cleanly *)
      if fault_site then Gap_resilience.Fault.point "mc.worker";
      let w = new_worker () in
      let continue = ref true in
      while !continue do
        let c = Atomic.fetch_and_add next 1 in
        if c < num_chunks then run_chunk w c else continue := false
      done;
      flush_worker_obs w
    in
    let others =
      Array.init (workers - 1) (fun _ -> Domain.spawn (work ~fault_site:true))
    in
    (* Exception safety: every spawned domain is joined no matter what the
       main domain's share does, so a raising worker can neither leak nor
       park domains; the first error (main's first, then workers in spawn
       order) re-raises as a typed [Worker_failed]. *)
    let errs = ref [] in
    (match work ~fault_site:false () with
    | () -> ()
    | exception e -> errs := (0, e) :: !errs);
    Array.iteri
      (fun i d ->
        match Domain.join d with
        | () -> ()
        | exception e -> errs := (i + 1, e) :: !errs)
      others;
    match List.rev !errs with
    | [] -> ()
    | (worker, e) :: _ ->
        let error =
          match e with
          | Gap_resilience.Stage_error.Stage_failure err ->
              Gap_resilience.Stage_error.to_string err
          | e -> Printexc.to_string e
        in
        raise
          (Gap_resilience.Stage_error.Stage_failure
             (Gap_resilience.Stage_error.Worker_failed
                { stage = "mc.simulate"; worker; error }))
  end;
  (* every worker has joined and none failed: the new shards are complete *)
  if grows then publish { seed; shards = kept };
  { nominal_mhz; fmax_mhz; model }

let simulate ?(seed = 2024L) ?(domains = 1) ~model ~nominal_mhz ~dies () =
  if dies <= 0 then
    invalid_arg
      (Printf.sprintf "Gap_variation.Montecarlo.simulate: dies = %d (must be positive)" dies);
  if domains <= 0 then
    invalid_arg
      (Printf.sprintf "Gap_variation.Montecarlo.simulate: domains = %d (must be positive)"
         domains);
  Obs.span "mc.simulate" (fun () ->
      try simulate_body ~seed ~domains ~model ~nominal_mhz ~dies
      with Gap_resilience.Stage_error.Stage_failure err when domains > 1 ->
        (* Graceful degradation: worker death or budget pressure falls back
           to a fresh sequential run. The shard layout depends only on
           [dies], so the degraded run's samples are byte-identical to the
           parallel ones — parallelism is strictly a wall-clock matter. *)
        Obs.incr "mc.degraded_runs";
        Obs.event "mc.degrade"
          [
            ("error", Gap_obs.Json.Str (Gap_resilience.Stage_error.to_string err));
            ("domains", Gap_obs.Json.Int domains);
          ];
        simulate_body ~seed ~domains:1 ~model ~nominal_mhz ~dies)

let percentile run p = Stats.buf_percentile run.fmax_mhz p
let mean run = Stats.buf_mean run.fmax_mhz

let spread run =
  (percentile run 99. -. percentile run 1.) /. percentile run 50.

let fraction_above run mhz =
  let n = Stats.buf_length run.fmax_mhz in
  float_of_int (Stats.buf_count_ge run.fmax_mhz mhz) /. float_of_int n
