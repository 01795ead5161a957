(** Deterministic Domain worker pool for point evaluation.

    Jobs are claimed off a shared atomic counter, and result slot [i]
    depends only on job [i], so the output array is identical for every
    worker count — parallelism is strictly a wall-clock matter. This is
    the library's only domain pool: a Monte Carlo run samples on the
    domain that calls it.

    Resilience: worker domains run jobs raw (spans and counters are
    domain-safe; supervision state is not), every spawned domain is joined
    no matter what, and any slot a dead or failing worker left behind is
    re-run on the calling domain under {!Gap_resilience.Supervisor.run_stage}
    — typed outcomes, retry on transients, never raising. A worker killed
    by the [dse.worker] fault site therefore degrades the pool to
    sequential execution of the orphaned slots with byte-identical results,
    recorded in the [dse.pool.degraded] counter. *)

type 'b outcome = ('b, Gap_resilience.Stage_error.t) result

val map :
  ?domains:int ->
  ?policy:Gap_resilience.Supervisor.policy ->
  stage:string ->
  ('a -> 'b) ->
  'a array ->
  'b outcome array
(** [map ~domains ~stage f jobs]: [domains] (default 1) caps the worker
    count at [Array.length jobs]; [policy] (default
    [Supervisor.default_policy]) governs the supervised re-runs. [f] must
    be deterministic and safe to call from worker domains; any lazy state
    it forces must be warmed up first (see {!Eval.warmup}). *)
