(** The [repro serve] daemon: a multi-client evaluation service over the
    shared content-addressed DSE cache.

    Shape: an accept loop hands each connection to its own thread; request
    threads resolve points against one {!Gap_dse.Cache} (all cache traffic
    under the server lock — the cache itself is not thread-safe) and park
    cache misses in per-client bounded queues. There is no scheduler
    thread: a request thread waiting on a queued point runs the next batch
    itself when no batch is running, so each miss costs no thread hand-off,
    and at most one batch runs at a time. A batch drains the queues with
    round-robin fairness (at most 8 points per client per pass, 256 per
    batch) and runs on {!Gap_dse.Pool.map}, so every
    evaluation goes through the supervised worker pool and a poisoned point
    comes back as a typed {!Gap_resilience.Stage_error.t} instead of
    killing the server. Before it collects its points, the thread that
    starts a batch yields once, so requests already runnable stage first
    and join the batch or coalesce onto it.

    Coalescing: requests for a point already being evaluated attach to the
    in-flight slot instead of enqueuing a second job — N concurrent
    requests for one point cost exactly one evaluation (observable as
    [dse.pool.jobs] and the [serve.coalesced] counter).

    Render once: a batch renders each fresh result's metrics document
    once, outside the lock; those bytes answer its waiters and become its
    store record. A cache hit is answered from the document its cache
    entry keeps ({!Gap_dse.Cache.find_doc}), and each request's point is
    hashed to its key once, before the lock is taken.

    Backpressure: each client may have at most [queue_bound] points queued;
    further eval requests from that client block (its reader thread stops
    consuming the socket, so the kernel's TCP/unix-socket buffers push back
    on the client) until results drain.

    Request lines: a line longer than {!max_line_bytes} is not buffered.
    The reader drops what it has read, discards up to the next newline and
    answers a typed [bad-request] naming the limit, so one client cannot
    pin more daemon memory than that.

    Kill-safety: the persistent store is a crash-only {!Gap_dse.Segstore}
    segment store. Each batch appends its fresh results as checksummed
    records, one write per record, so killing the daemon at any instant
    leaves a store recovery can validate (at worst a torn tail it
    truncates). A flush that fails with a typed storage error is counted,
    recorded as a [serve.flush_failed] event, and retried with the next
    batch; it never kills the request thread running the batch. *)

type config = {
  addr : Protocol.addr;
  domains : int;  (** worker domains per evaluation batch (default 1) *)
  store : string option;  (** persistent cache store path *)
  capacity : int;  (** in-memory LRU capacity *)
  queue_bound : int;  (** max queued evals per client before it blocks *)
  idle_timeout_s : float option;
      (** evict a connection silent for this long: its reader thread sends a
          typed [Timeout] response (best-effort, if the socket is writable)
          and closes. [None] (default) never evicts. *)
}

val default_config : Protocol.addr -> config
(** domains 1, no store, capacity 4096, queue_bound 64, no idle
    timeout. *)

type t

val create : config -> t
(** Loads the store (if any) and warms the evaluator's memoized anchors. *)

val start : t -> unit
(** Bind the socket (an existing Unix-socket path is replaced), then spawn
    the accept thread and return. @raise Unix.Unix_error on bind
    failure. *)

val stop : t -> unit
(** Graceful shutdown: stop accepting, fail blocked enqueuers with
    [Overloaded], wait until no batch runs and nothing is queued (the
    request threads waiting on queued points run them, so attached waiters
    get real results), join the accept thread, shut the read side of open
    connections down (a reader waiting on a silent client sees EOF, while
    an answer still being written reaches its client) and flush the cache.
    Idempotent. *)

val wait : t -> unit
(** Block until the server stops (a [shutdown] request, or {!stop} from
    another thread). *)

val stats_json : t -> Gap_obs.Json.t
(** The same document a [stats] request returns. *)

val max_line_bytes : int
(** The longest request line a connection buffers, 1 MiB; a longer line is
    discarded up to its newline and answered with a [bad-request] that
    names this limit. *)

(** {1 Introspection for tests and the fault campaign} *)

type stats = {
  requests : int;  (** requests handled, any op *)
  evals : int;  (** evaluations actually run (cache+coalesce misses) *)
  coalesced : int;  (** eval requests attached to an in-flight slot *)
  cache_hits : int;  (** eval requests served straight from the cache *)
  errors : int;  (** requests answered with a typed error *)
  pending : int;  (** distinct points queued or in a running batch *)
  batches : int;  (** batches run, each on the request thread that started it *)
  max_batch : int;  (** largest batch *)
  clients_seen : int;
  idle_evictions : int;  (** connections dropped by the idle deadline *)
  flush_failures : int;  (** batch flushes that returned a typed error *)
}

val stats : t -> stats
