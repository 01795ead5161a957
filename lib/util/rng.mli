(** Deterministic pseudo-random number generation.

    All stochastic parts of the library (Monte Carlo variation sampling,
    simulated annealing, random netlist generation, property tests) draw from
    this module so that every experiment is reproducible from a seed.

    The generator is xoshiro256**, seeded through splitmix64, following the
    reference implementations of Blackman and Vigna. The state lives in an
    int64 Bigarray so that drawing — in particular the batched
    {!normal_std_fill} — compiles to unboxed code and allocates nothing,
    which keeps Monte Carlo runs on concurrent domains free of minor-GC
    barriers. *)

type t
(** Mutable generator state. *)

val create : ?seed:int64 -> unit -> t
(** [create ~seed ()] makes a fresh generator. The default seed is a fixed
    constant, so two generators created without a seed produce identical
    streams. *)

val copy : t -> t
(** Independent copy of the current state. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t]. Streams of the
    parent and child are (statistically) independent; used to give each
    Monte Carlo shard its own stream. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val bits30 : t -> int
(** 30 uniform bits as a non-negative [int]. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. Requires [n > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. Requires
    [lo <= hi]. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val float_in : t -> float -> float -> float
(** [float_in t lo hi] is uniform in [\[lo, hi)]. *)

val bool : t -> bool
(** Fair coin. *)

val normal : t -> mean:float -> sigma:float -> float
(** Gaussian sample by the Box-Muller transform (the spare value is cached, so
    successive calls use both halves of each transform). *)

val lognormal : t -> mu:float -> sigma:float -> float
(** [exp] of a [normal] sample with the given underlying parameters. *)

val normal_std_fill : t -> float array -> pos:int -> len:int -> unit
(** [normal_std_fill t buf ~pos ~len] writes [len] standard normal samples
    into [buf.(pos .. pos+len-1)] — bit-identical to [len] successive
    [normal t ~mean:0. ~sigma:1.] calls (the Box-Muller spare is consumed
    at entry and cached at exit exactly as the scalar path would), but with
    the transform inlined so batch consumers pay no per-draw allocation.
    [Invalid_argument] if the range falls outside [buf]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)
