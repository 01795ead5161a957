(** K-feasible cut enumeration on AIGs, the front half of technology mapping.

    A cut of node [n] is a set of nodes ("leaves") such that every path from
    the inputs to [n] passes through a leaf; a k-feasible cut has at most [k]
    leaves. The mapper covers the AIG by choosing one cut per mapped node and
    one library cell realizing that cut's function. *)

type cut = { leaves : int array  (** node ids, sorted ascending *) }

val trivial : int -> cut
val size : cut -> int

val enumerate : ?k:int -> Gap_logic.Aig.t -> cut list array
(** [enumerate g] returns, for every node id, its cut list (trivial cut
    included, dominated cuts pruned, at most 10 kept). Inputs and the
    constant node get only their trivial cut. [k] defaults to 4. *)

val cut_function : Gap_logic.Aig.t -> int -> cut -> Gap_logic.Truthtable.t
(** [cut_function g root cut] is the function of [root] (positive phase) in
    terms of the cut leaves, with leaf [i] (in array order) as variable [i].
    Requires the cut to actually cover [root]. *)
