(** All reproduced experiments, in paper order. *)

val all : (string * string * (unit -> Exp.result)) list
(** The paper's claims, E1..E10: (id, short title, runner). *)

val extensions : (string * string * (unit -> Exp.result)) list
(** Our extensions beyond the paper (X1..): power, economics, ablations. *)

val find : string -> (unit -> Exp.result) option
(** Case-insensitive lookup by id (e.g. "e3"). *)

val summary : Exp.result list -> string
(** Pass/checkable counts per experiment plus a total line. *)
