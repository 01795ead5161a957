(** Flow-wide telemetry: hierarchical spans, named counters and gauges,
    fixed-bucket histograms, and structured events, all feeding one ambient
    sink. The default sink is a no-op, so instrumented hot paths pay a single
    match when telemetry is off. A recording sink aggregates spans by
    (experiment, path) and can stream one JSON line per closed span / event
    to an out_channel (JSONL trace). *)

type sink

val null : sink
(** The no-op sink. *)

val recorder : ?trace:out_channel -> unit -> sink
(** A fresh recording sink. With [~trace], every closed span and emitted
    event is also written to the channel as one JSON line (the channel is
    not closed by this module). *)

val set : sink -> unit
val get : unit -> sink

val enabled : unit -> bool
(** True when the ambient sink records. Use to gate instrumentation whose
    mere argument construction would cost something. *)

val with_sink : sink -> (unit -> 'a) -> 'a
(** Install a sink for the duration of [f]; restores the previous sink even
    on exception. *)

val now_ns : unit -> int64
(** Monotonic clock, nanoseconds. *)

(** {1 Recording} *)

val span : ?attrs:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] under a span named [name], nested below the
    innermost open span. Wall time (monotonic) and heap allocation (minor,
    major and promoted word deltas, via [Gc.quick_stat]) are aggregated per
    (experiment, '/'-joined path); raw per-call spans go only to the JSONL
    trace. Exception-safe. *)

val annotate : (string * Json.t) list -> unit
(** Attach key/value attributes to the innermost open span. *)

val with_exp : string -> (unit -> 'a) -> 'a
(** Tag every span/counter/event recorded by [f] with the experiment id. *)

val incr : ?by:int -> string -> unit
val gauge : string -> float -> unit

val observe : ?bounds:float array -> string -> float -> unit
(** Record [v] into the named histogram. [counts.(i)] holds values with
    [bounds.(i-1) < v <= bounds.(i)]; the last bucket is overflow. [bounds]
    applies on first observation only; the default is 1-2-5 per decade,
    1e-3..1e9. Safe to call from worker domains. *)

val observe_batch : ?bounds:float array -> string -> float array -> unit
(** Record every value of the array into the named histogram under a single
    recorder-lock acquisition — what a loop should call once at its end
    instead of {!observe} per work item. No-op on an empty array. *)

val event : string -> (string * Json.t) list -> unit
(** Timestamped structured event; counted, and streamed to the trace. *)

(** {1 Reading a recording back} *)

type span_stats = {
  exp : string;
  path : string;
  name : string;
  depth : int;
  calls : int;
  total_ns : float;
  min_ns : float;
  max_ns : float;
  minor_words : float;
  major_words : float;
  promoted_words : float;
}

type hist_stats = {
  bounds : float array;
  counts : int array;
  n : int;
  sum : float;
  min_v : float;
  max_v : float;
}

val spans : sink -> span_stats list
(** Aggregated spans in first-open order. *)

val counters : sink -> (string * int) list
val counter_value : sink -> string -> int
val gauges : sink -> (string * float) list
val gauge_value : sink -> string -> float option
val events : sink -> (string * int) list
val histograms : sink -> (string * hist_stats) list
val histogram_stats : sink -> string -> hist_stats option

(** {1 Export} *)

val pp_ns : float -> string
(** "1.23 s" / "4.56 ms" / "7.89 us" / "12 ns". *)

val summary : sink -> string
(** Pretty tables (via {!Gap_util.Table}) for spans, counters, gauges,
    histograms and events; empty string for the no-op sink. *)

val spans_csv : sink -> string
(** Span aggregates as CSV with raw nanosecond columns. *)

val metrics_json : sink -> Json.t
val write_metrics_json : sink -> string -> unit
(** Pretty-printed {!metrics_json} plus trailing newline, written atomically
    (temp-file + rename) so a crash cannot leave a truncated document. *)
