(** Content-addressed cache keys for design-space points.

    A key is the FNV-1a hash of the evaluator's {!Eval.flow_version}
    followed by the point's canonical rendering, in hex. Two points collide
    only if their canonical strings collide (property-tested across every
    preset), and bumping the flow version invalidates every stored result
    at once — an older store simply reads cold. The backend axis landed
    with such a bump (["gap-dse-1"] -> ["gap-dse-2"]): results keyed before
    the axis existed read cold instead of aliasing onto the enlarged
    space. *)

val of_point : Space.point -> string
(** 16 hex digits, stable across processes and machines. *)
