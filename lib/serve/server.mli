(** The [repro serve] daemon: a multi-client evaluation service over the
    shared content-addressed DSE cache.

    Shape: an accept loop hands each connection to its own thread; request
    threads resolve points against one {!Gap_dse.Cache} (all cache traffic
    under the server lock — the cache itself is not thread-safe) and park
    cache misses in per-client bounded queues; a single scheduler thread
    drains those queues with round-robin fairness into batches it runs on
    {!Gap_dse.Pool.map}, so every evaluation goes through the supervised
    worker pool and a poisoned point comes back as a typed
    {!Gap_resilience.Stage_error.t} instead of killing the server.

    Coalescing: requests for a point already being evaluated attach to the
    in-flight slot instead of enqueuing a second job — N concurrent
    requests for one point cost exactly one evaluation (observable as
    [dse.pool.jobs] and the [serve.coalesced] counter).

    Backpressure: each client may have at most [queue_bound] points queued;
    further eval requests from that client block (its reader thread stops
    consuming the socket, so the kernel's TCP/unix-socket buffers push back
    on the client) until results drain.

    Kill-safety: the persistent store is a crash-only {!Gap_dse.Segstore}
    segment store — each batch appends its fresh results as checksummed
    records in a single write — so killing the daemon at any instant leaves
    a store recovery can validate (at worst a torn tail it truncates). A
    flush that fails with a typed storage error is counted, recorded as a
    [serve.flush_failed] event, and retried with the next batch; it never
    kills the scheduler. *)

type config = {
  addr : Protocol.addr;
  domains : int;  (** worker domains per evaluation batch (default 1) *)
  store : string option;  (** persistent cache store path *)
  capacity : int;  (** in-memory LRU capacity *)
  queue_bound : int;  (** max queued evals per client before it blocks *)
  fair_share : int;  (** max jobs one client contributes per scheduling pass *)
  batch_max : int;  (** max jobs per [Pool.map] batch *)
  idle_timeout_s : float option;
      (** evict a connection silent for this long: its reader thread sends a
          typed [Timeout] response (best-effort, if the socket is writable)
          and closes. [None] (default) never evicts. *)
}

val default_config : Protocol.addr -> config
(** domains 1, no store, capacity 4096, queue_bound 64, fair_share 8,
    batch_max 256, no idle timeout. *)

type t

val create : config -> t
(** Loads the store (if any) and warms the evaluator's memoized anchors. *)

val start : t -> unit
(** Bind the socket (an existing Unix-socket path is replaced), then spawn
    the accept and scheduler threads and return. @raise Unix.Unix_error on
    bind failure. *)

val stop : t -> unit
(** Graceful shutdown: stop accepting, fail blocked enqueuers with
    [Overloaded], drain already-queued work so attached waiters get real
    results, flush the cache, shut open connections down and join the
    service threads. Idempotent. *)

val wait : t -> unit
(** Block until the server stops (a [shutdown] request, or {!stop} from
    another thread). *)

val stats_json : t -> Gap_obs.Json.t
(** The same document a [stats] request returns. *)

(** {1 Introspection for tests and the fault campaign} *)

type stats = {
  requests : int;  (** requests handled, any op *)
  evals : int;  (** evaluations actually run (cache+coalesce misses) *)
  coalesced : int;  (** eval requests attached to an in-flight slot *)
  cache_hits : int;  (** eval requests served straight from the cache *)
  errors : int;  (** requests answered with a typed error *)
  batches : int;  (** scheduler batches run *)
  max_batch : int;  (** largest batch *)
  clients_seen : int;
  idle_evictions : int;  (** connections dropped by the idle deadline *)
  flush_failures : int;  (** batch flushes that returned a typed error *)
}

val stats : t -> stats
