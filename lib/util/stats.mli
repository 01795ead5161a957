(** Descriptive statistics used by the Monte Carlo experiments and the
    benchmark harness. *)

(** {1 Running (Welford) accumulator} *)

type running
(** Single-pass accumulator for mean and variance. *)

val running : unit -> running
val add : running -> float -> unit
val count : running -> int
val mean : running -> float
val variance : running -> float
(** Unbiased sample variance; [0.] when fewer than two samples. *)

val stddev : running -> float
val running_min : running -> float
val running_max : running -> float

(** {1 Whole-sample statistics}

    Functions over [float array] samples validate their inputs and raise
    [Invalid_argument] naming the function on an empty sample, an
    out-of-range percentile, a non-positive bin count, or mismatched pair
    lengths. (They used to [assert], which compiles out under [-noassert]
    and then silently returns garbage.) *)

val mean_of : float array -> float
val stddev_of : float array -> float
val percentile_sorted : float array -> float -> float
(** Like {!percentile} but assumes [xs] is already sorted ascending and does
    not copy it; callers that take many percentiles of one sample should sort
    once and use this. *)

val percentile : float array -> float -> float
(** [percentile xs p] for [p] in [\[0,100\]], by linear interpolation between
    order statistics. The input array is not modified. Requires a non-empty
    array. *)

val median : float array -> float
val minimum : float array -> float
val maximum : float array -> float

val histogram : ?bins:int -> float array -> (float * float * int) array
(** [histogram xs] buckets samples into [bins] equal-width bins over
    [\[min, max\]]; each entry is [(lo, hi, count)]. *)

(** {1 Unboxed sample buffers}

    Flat [float64] Bigarray buffers for large sample sets. Worker domains
    may write disjoint ranges concurrently (the buffer never moves under
    the GC). Order statistics are read without a sort and without
    modifying the buffer: a rank within [n/32] of either end (p1 or p99 of
    a few thousand samples, say) takes one pass that keeps only that tail
    in a bounded heap, and any other rank runs median-of-three quickselect
    on a copy. Structural equality ([=]) on two buffers compares
    dimensions and contents, so byte-identity assertions work unchanged. *)

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

val buf_create : int -> buf
(** Fresh uninitialized buffer of the given length. *)

val buf_length : buf -> int
val buf_of_array : float array -> buf
val buf_to_array : buf -> float array
val buf_copy : buf -> buf

val buf_mean : buf -> float
val buf_min : buf -> float
val buf_max : buf -> float
(** Single-pass aggregates; [Invalid_argument] on an empty buffer. *)

val buf_count_ge : buf -> float -> int
(** Number of entries [>= x]; one pass, no ordering required. *)

val buf_select : buf -> int -> float
(** [buf_select b k] is the k-th smallest element (0-based). [b] is not
    modified. A tail rank costs one pass and a heap of at most [n/32]
    floats; any other rank a copy of [b] and expected O(n) quickselect.
    [Invalid_argument] on an empty buffer, an out-of-range rank, or a NaN
    anywhere in [b]. *)

val buf_percentile : buf -> float -> float
(** Interpolated percentile over an {e unsorted} buffer from the two
    bracketing order statistics, found as {!buf_select} finds them:
    exactly the value {!percentile_sorted} returns on the sorted copy,
    without the sort. [b] is not modified. [Invalid_argument] on an empty
    buffer, a percentile outside [\[0,100\]], or a NaN anywhere in [b]. *)

val correlation : float array -> float array -> float
(** Pearson correlation coefficient of two equal-length arrays. *)

val linear_fit : float array -> float array -> float * float
(** [linear_fit xs ys] is the least-squares [(slope, intercept)]. *)
