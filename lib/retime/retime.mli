(** Leiserson-Saxe retiming: moving registers across logic to minimize the
    clock period without changing I/O behaviour.

    The circuit is a directed graph with a propagation delay per node and a
    register count per edge. A retiming assigns an integer lag [r(v)] to each
    node; edge weights become [w(e) + r(dst) - r(src)] and must stay
    non-negative. The achievable clock period is the longest register-free
    combinational path. Feasibility for a candidate period uses the classic
    FEAS iteration; the minimum period is found by binary search between the
    largest node delay and the unretimed period. *)

type t

exception Register_free_cycle of int list
(** A directed cycle with no register on any edge — no clock period exists.
    The payload is one witness cycle as node ids in edge order. *)

val create : unit -> t

val add_node : t -> delay:float -> int
(** Raises [Invalid_argument] on a negative delay. *)

val add_edge : t -> src:int -> dst:int -> regs:int -> unit
(** Raises [Invalid_argument] on a negative register count or out-of-range
    node id. *)

val node_count : t -> int

val well_formed : t -> bool
(** Every directed cycle carries at least one register (otherwise no clock
    period exists). *)

val clock_period : ?retiming:int array -> t -> float
(** Longest register-free path delay under the (default zero) retiming.
    Raises [Invalid_argument] if the retiming makes an edge weight negative,
    {!Register_free_cycle} (carrying the offending cycle) if a register-free
    cycle exists. *)

val legal : t -> int array -> bool
(** All retimed edge weights non-negative. *)

val feasible : t -> period:float -> int array option
(** FEAS: a legal retiming achieving [period], if one exists. *)

val min_period : t -> float * int array
(** Binary search over [feasible]; returns the best period found (within
    1e-3) and its retiming. *)

val registers : ?retiming:int array -> t -> int
(** Total registers on edges under a retiming. *)
