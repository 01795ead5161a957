(** Monte Carlo fmax sampling over a variation model.

    Samples live in an unboxed float64 Bigarray
    ({!Gap_util.Stats.buf}): worker domains write disjoint flat-memory
    ranges directly, with no boxed [float array] and no per-sample
    allocation (each shard's standard normals are drawn in one batched
    {!Gap_util.Rng.normal_std_fill}).

    Sampling is sharded: dies are drawn in fixed 1024-die blocks, each
    block from its own generator split off the master seed, and [domains]
    workers claim *chunks* of up to 8 consecutive blocks off a shared
    counter — chunk-granularity claiming keeps the atomic counter off the
    hot path and every claim covers a contiguous, cache-line-aligned span
    of the buffer (chunks shrink on small runs so every worker still sees
    work to steal). Because the block layout depends only on [dies] — the
    chunk size steers only which worker writes which block — the resulting
    sample buffer is byte-identical for every [domains] value; parallelism
    changes wall-clock only, never results.

    Runs that repeat a seed stop redrawing its standard normals. A shard's
    normals depend only on the seed and the shard index — not on the model,
    the die count or [domains] — so once two runs in a row share a seed the
    process retains that seed's normals, shard by shard, and every later
    run on it reads them back and runs only the per-die fmax arithmetic
    ({!Model.fill_fmax}). A seed run only once keeps nothing. A retained
    shard is always whole: a run ending mid-shard still draws and keeps
    all 1024 dies' normals, of which its own are a prefix, so one stream
    serves every die count. At most 64 shards (65,536 dies, 2 MiB of
    float64 outside the OCaml heap) are kept; shards past that are drawn
    into worker scratch on every run. Results are bit-identical to drawing
    every shard afresh. *)

type run = {
  nominal_mhz : float;
  fmax_mhz : Gap_util.Stats.buf;  (** one entry per die, unsorted *)
  model : Model.t;
}

val simulate :
  ?seed:int64 ->
  ?domains:int ->
  model:Model.t ->
  nominal_mhz:float ->
  dies:int ->
  unit ->
  run
(** [domains] (default 1) is the number of Domains that sample in parallel;
    results are identical for any value. [Invalid_argument] unless both
    [dies] and [domains] are positive.

    Reuse: shards the process has retained for [seed] are read back, not
    redrawn; the rest are drawn, and those among the first 64 are kept when
    [seed] is the retained seed or the seed of the previous run.
    The new shards are published through one atomic only after every
    worker has joined, and a published shard is never written again, so
    concurrent runs on any domains read complete shards; a run that fails
    publishes nothing, and a run on another seed replaces the stream.

    Observability: worker domains aggregate locally and flush once at join
    time — one batched [mc.shard_ns] histogram record per worker,
    [mc.chunks_claimed] / [mc.worker_chunks] for work-stealing balance, and
    [mc.shards_reused] / [mc.shards_drawn] for normal reuse — instead of
    taking the recorder mutex per shard.

    Resilience: every spawned domain is joined even when a worker raises,
    and the first error re-raises as a typed
    [Gap_resilience.Stage_error.Worker_failed]. A parallel run that fails
    this way (or hits an injected budget fault) degrades to a fresh
    sequential run with byte-identical samples; only if that also fails
    does the typed error propagate to the caller. *)

val percentile : run -> float -> float
(** {!Gap_util.Stats.buf_percentile} of the samples: exactly what sorting
    and interpolating would return, without a sort. A tail percentile
    (within 1/32 of either end, such as p1 or p99) is one read-only pass
    that keeps only that tail; any other rank runs quickselect on its own
    copy of the samples. The run is never modified. *)

val mean : run -> float
val spread : run -> float
(** (p99 - p1) / p50: the visible speed spread of shipped parts. *)

val fraction_above : run -> float -> float
(** Yield at a frequency: fraction of dies at or above [mhz]; one pass
    over the unsorted buffer. *)
