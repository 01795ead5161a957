(** Trace analysis: per-(exp, path) aggregates with self-time attribution,
    top-K rankings, critical-path extraction, percentile estimates from
    fixed-bucket histogram counts, and the span-total diff of two runs.
    The reading half of {!Obs}'s telemetry. *)

type node = {
  n_exp : string;
  n_path : string;
  n_name : string;
  n_depth : int;
  n_calls : int;
  n_total_ns : float;
  n_self_ns : float;
      (** total minus the totals of direct children: the wall-clock actually
          attributable to this span's own code *)
  n_min_ns : float;
  n_max_ns : float;
  n_minor_words : float;
  n_major_words : float;
  n_promoted_words : float;
}

type t = {
  nodes : node list;  (** first-seen order *)
  event_counts : (string * int) list;
  span_count : int;
  wall_ns : float;  (** max span end minus min span start; 0 with no spans *)
  truncated : string option;
}

val analyze : Trace.t -> t

val top_by_wall : ?k:int -> t -> node list
(** Nodes ranked by self time, descending. Default [k] = 10. *)

val top_by_alloc : ?k:int -> t -> node list
(** Nodes ranked by minor+major words, descending. *)

val critical_path : t -> node list
(** The heaviest root span, then at each level its heaviest direct child —
    the chain that dominates wall-clock. *)

val hist_percentile : bounds:float array -> counts:int array -> float -> float
(** [hist_percentile ~bounds ~counts q] estimates the q-th percentile
    (0..100) from fixed-bucket counts (the {!Obs} histogram layout:
    [counts.(i)] holds [bounds.(i-1) < v <= bounds.(i)], last is overflow)
    by linear interpolation inside the crossing bucket. [nan] on an empty
    histogram; the overflow bucket reports its lower edge. *)

val hist_summary : Obs.hist_stats -> float * float * float
(** (p50, p90, p99) of a recorded histogram. *)

val render : ?top:int -> t -> string
(** Tables: span tree with self%/alloc, top-K by self time and allocation,
    critical path, event counts. *)

val to_json : ?top:int -> t -> Json.t

(** {1 Comparing two runs} *)

type delta = {
  span : string;  (** ["exp:path"], or the path alone outside any experiment *)
  base_ns : float;  (** span total in the baseline *)
  cur_ns : float;  (** span total in the current run *)
  pct : float;
      (** (cur / base - 1) x 100; positive = slower. 0 when both are 0,
          [infinity] when only the baseline total is 0. *)
}

type diff = {
  deltas : delta list;  (** spans on both sides, in baseline order *)
  only_base : string list;  (** spans the current run no longer has *)
  only_cur : string list;  (** spans new in the current run *)
}

val diff : baseline:t -> current:t -> diff
(** Span totals of two analyses, matched by (exp, path). *)

val render_diff : diff -> string
(** Deltas sorted slowest first, then the one-sided spans. *)
