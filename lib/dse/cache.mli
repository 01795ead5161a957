(** Content-addressed result cache: in-memory LRU over a crash-only
    {!Segstore} segment store.

    Every evaluated point is stored under its {!Key.of_point}. The
    in-memory side is a bounded LRU; the persistent side is an append-only
    checksummed segment store — a flush appends only the records added
    since the last one (a single [O_APPEND] write each), so a kill at any
    moment leaves a store recovery can always validate: the torn tail is
    truncated with a note, anything worse is a typed
    [Stage_error.Storage_fault]. Compaction folds superseded records away
    into a fresh generation once the log doubles the live set.

    A store whose recorded flow version differs from {!Eval.flow_version}
    loads as empty (stale results are invisible, not wrong) and is reset to
    the current flow on the next flush. Any file at the path — the store is
    always a directory — loads cold and is replaced on the first flush.

    Lookups and insertions feed the [dse.cache.hit] / [dse.cache.miss] /
    [dse.cache.store] / [dse.cache.evict] counters through [Gap_obs], and
    the same tallies are kept in {!stats} so hit accounting works with the
    no-op sink installed. Not domain-safe: the sweep engine does all cache
    traffic on the main domain. *)

type t

type stats = {
  entries : int;
  capacity : int;
  hits : int;
  misses : int;
  evictions : int;
}

val create : ?capacity:int -> ?store:string -> unit -> t
(** [capacity] bounds the in-memory LRU (default 4096; the store's live set
    holds at most the same entries). With [store] the path is opened
    immediately: a segment-store directory is recovered and replayed, and a
    missing, foreign, or stale-flow path loads as empty.

    @raise Gap_resilience.Stage_error.Stage_failure ([Storage_fault]) when
    an existing segment store is corrupt before its recoverable tail. *)

val recovery_note : t -> string option
(** The torn-tail note from the opening recovery, if one was truncated. *)

val find : t -> Space.point -> Eval.metrics option
val add : t -> Space.point -> Eval.metrics -> unit

val flush : t -> unit
(** Persist the adds since the last flush as appended records (no-op
    without a store or when clean). Written key-sorted, so equal caches
    produce byte-identical stores; transient storage faults are retried
    under a supervisor before the typed error propagates. *)

val try_flush : t -> (unit, Gap_resilience.Stage_error.t) result
(** {!flush} for callers that must survive a failing disk (the serve
    scheduler): the typed error is returned instead of raised and the
    pending records stay queued for the next attempt. *)

val compact : t -> unit
(** Flush, then force a compaction: rewrite the store to exactly the live
    entries in a fresh generation. *)

val entries : t -> (Space.point * Eval.metrics) list
(** Every live entry, sorted by cache key — deterministic whatever order
    the hash table iterates in, so listings and documents built from it
    stay byte-identical across runs. *)

val stats : t -> stats

val backend_stats : t -> (int * int * int) option
(** [(records, segments, generation)] of the open segment store — [None]
    until the first flush materializes it (or without a store at all). *)

val hit_rate : stats -> float
(** [hits / (hits + misses)]; 0 when no lookups happened. *)

val clear : string -> unit
(** Reset the store at [path] to an empty fresh generation (replacing any
    foreign file there). *)

(** {1 On-disk inspection} *)

type store_info = {
  si_entries : int;  (** distinct live keys *)
  si_records : int;  (** raw records, duplicates included *)
  si_segments : int;
  si_generation : int;
  si_flow : string;
  si_torn : string option;  (** unrecovered torn tail, if the scan saw one *)
}

type store_status =
  | Store of store_info
  | Missing of string
  | Foreign of string  (** a file where a segment-store directory belongs *)
  | Corrupt of Gap_resilience.Stage_error.t

val inspect_store : string -> store_status
(** Read-only look at whatever lives at [path], without building a cache —
    the [repro cache stats] backend. Never writes, never raises. *)
