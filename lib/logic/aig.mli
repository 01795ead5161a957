(** And-Inverter Graphs with structural hashing.

    The AIG is the synthesis flow's internal representation: datapath
    generators produce AIGs, [Gap_synth.Balance] restructures them for depth,
    and the technology mapper covers them with library cells.

    Nodes are referred to by {e literals}: [lit = 2 * id + complement_bit].
    Node id 0 is the constant false, so literal 0 is false and literal 1 is
    true. *)

type t
type lit = int

val lit_false : lit
val lit_true : lit
val lit_of_id : int -> bool -> lit
val id_of_lit : lit -> int
val is_compl : lit -> bool
val negate : lit -> lit

val create : unit -> t

val add_input : t -> string -> lit
(** New primary input (positive literal). *)

val and_ : t -> lit -> lit -> lit
(** Structurally-hashed AND with the usual simplifications
    (x & 0, x & 1, x & x, x & !x). *)

val or_ : t -> lit -> lit -> lit
val xor_ : t -> lit -> lit -> lit
val mux_ : t -> sel:lit -> lit -> lit -> lit
(** [mux_ ~sel a b] is [a] when [sel] = 0, [b] when [sel] = 1. *)

val add_output : t -> string -> lit -> unit

val num_inputs : t -> int
val num_outputs : t -> int
val num_ands : t -> int
val num_nodes : t -> int
(** Constant + inputs + AND nodes. *)

val inputs : t -> (string * lit) array
val outputs : t -> (string * lit) array
val input_index : t -> int -> int option
(** [input_index g id] is the position of node [id] in the input list, if the
    node is an input. *)

val is_input : t -> int -> bool
val is_and : t -> int -> bool
val fanins : t -> int -> lit * lit
(** Fanin literals of an AND node. *)

val levels : t -> int array
(** Per-node AND-depth (inputs and constants at level 0). *)

val depth : t -> int
(** Max level over the outputs' cones. *)

val fanout_counts : t -> int array
(** Number of uses of each node (as either fanin or output, counting
    multiplicity). *)

val eval : t -> bool array -> bool array
(** [eval g ins] evaluates all outputs for one input assignment (indexed like
    [inputs g]). *)

val eval64 : t -> int64 array -> int64 array
(** Bit-parallel evaluation of 64 assignments at once: element [i] of the
    argument holds 64 values for input [i]. Used for fast random equivalence
    checking. *)

val topo_ands : t -> int array
(** All AND node ids in topological (creation) order. *)

val cone_of : t -> lit list -> int array
(** Ids of all AND nodes in the transitive fanin of the given literals. *)

val equivalent_random : t -> t -> Gap_util.Rng.t -> bool
(** Monte Carlo combinational-equivalence check of two AIGs with identically
    named/ordered inputs and outputs: 64 x 16 random patterns. Sound only
    probabilistically; exhaustive for [<= 6] inputs when the 1024 patterns
    cover all [2^inputs], so the tests also use {!eval} exhaustively on
    small cones. *)

val pp_stats : Format.formatter -> t -> unit
