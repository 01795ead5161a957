module Obs = Gap_obs.Obs
module Stats = Gap_util.Stats

type run = {
  nominal_mhz : float;
  fmax_mhz : Stats.buf;
  model : Model.t;
}

(* Dies are sampled in fixed-size shards, each from its own RNG split off the
   master seed in shard order, so die [i]'s value depends only on the seed
   and [i]. One shard is 8 KiB of float64. *)
let shard_size = 1024

(* Standard normals retained across runs. A shard's normals depend only on
   the master seed and the shard index (shard [s] draws from the [s]-th
   split of the seed), never on the model or [dies], so a run on the
   retained seed redraws nothing already kept: it reads the kept normals
   and runs only the per-die fmax arithmetic. Retained shards are drawn
   whole even when a run ends mid-shard: [normal_std_fill] fills in pairs
   and [draws_per_die * len] is even, so a short shard's draws are a prefix
   of the full shard's and one stream serves every die count.

   A seed's normals are kept from its second run in a row on: a run on a
   seed used once — each of E9's arms has its own — allocates nothing to
   keep, and a run on the seed just used (every binned DSE point shares
   [Eval]'s) starts the stream. Alternating seeds then allocate nothing,
   where replacing the stream on every run would allocate up to 2 MiB
   each time.

   The cap bounds the memory at 64 shards — 65,536 dies, 2 MiB of float64
   outside the OCaml heap — which covers every preset (the [variation]
   grid tops out at 32,000 dies) and every experiment (X2 runs 30,000).
   Past the cap a run draws into scratch, so a 1M-die point stays a long
   evaluation. *)
let max_retained_shards = 64
let shard_draws = Model.draws_per_die * shard_size

(* [shards.(s)] holds the [shard_draws] normals of shard [s] of [seed]'s
   stream. Published only whole, once the run that drew them has filled
   every one, and never mutated once published: concurrent callers on
   other domains or threads see complete shards. *)
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

let simulate ?(seed = 2024L) ~model ~nominal_mhz ~dies () =
  if dies <= 0 then
    invalid_arg
      (Printf.sprintf "Gap_variation.Montecarlo.simulate: dies = %d (must be positive)" dies);
  Obs.span "mc.simulate" (fun () ->
      let master = Gap_util.Rng.create ~seed () in
      let num_shards = (dies + shard_size - 1) / shard_size in
      let obs_on = Obs.enabled () in
      if obs_on then begin
        Obs.annotate
          [ ("dies", Gap_obs.Json.Int dies); ("shards", Gap_obs.Json.Int num_shards) ];
        Obs.incr ~by:dies "mc.samples"
      end;
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
         run *)
      let n_keep = if admit then min num_shards max_retained_shards else 0 in
      let grows = n_keep > Array.length cached in
      let kept =
        if grows then
          Array.init n_keep (fun s ->
              if s < Array.length cached then cached.(s) else no_shard)
        else cached
      in
      let reused = min num_shards (Array.length cached) in
      let draws = if num_shards > reused then Array.make shard_draws 0. else [||] in
      let unkept =
        if num_shards > n_keep then Stats.buf_create shard_draws else no_shard
      in
      let times = if obs_on then Array.make num_shards 0. else [||] in
      for s = 0 to num_shards - 1 do
        let rng = Gap_util.Rng.split master in
        let t0 = if obs_on then Obs.now_ns () else 0L in
        let lo = s * shard_size in
        let len = min shard_size (dies - lo) in
        let z =
          if s < reused then cached.(s)
          else begin
            let n = if s < n_keep then shard_draws else Model.draws_per_die * len in
            Gap_util.Rng.normal_std_fill rng draws ~pos:0 ~len:n;
            let dst =
              if s < n_keep then begin
                let b = Stats.buf_create shard_draws in
                kept.(s) <- b;
                b
              end
              else unkept
            in
            copy_normals draws dst n;
            dst
          end
        in
        (* [lo, lo+len) is within [0, dies) by construction *)
        Model.fill_fmax model ~z ~out:fmax_mhz ~pos:lo ~len ~nominal_mhz;
        if obs_on then
          times.(s) <- Int64.to_float (Int64.sub (Obs.now_ns ()) t0)
      done;
      if obs_on then begin
        Obs.observe_batch "mc.shard_ns" times;
        Obs.incr ~by:reused "mc.shards_reused";
        Obs.incr ~by:(num_shards - reused) "mc.shards_drawn"
      end;
      (* every kept shard is filled: publish them *)
      if grows then publish { seed; shards = kept };
      { nominal_mhz; fmax_mhz; model })

let percentile run p = Stats.buf_percentile run.fmax_mhz p
let mean run = Stats.buf_mean run.fmax_mhz

let spread run =
  (percentile run 99. -. percentile run 1.) /. percentile run 50.

let fraction_above run mhz =
  let n = Stats.buf_length run.fmax_mhz in
  float_of_int (Stats.buf_count_ge run.fmax_mhz mhz) /. float_of_int n
