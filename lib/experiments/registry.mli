(** All reproduced experiments, in paper order. *)

val all : (string * string * (unit -> Exp.result)) list
(** The paper's claims, E1..E10: (id, short title, runner). *)

val extensions : (string * string * (unit -> Exp.result)) list
(** Our extensions beyond the paper (X1..): power, economics, ablations. *)

val find : string -> (unit -> Exp.result) option
(** Case-insensitive lookup by id (e.g. "e3"). *)

(** {1 Tunable experiments}

    E3 (pipeline depth/skew/overheads), E4 (Leff, cycle FO4, ALU width) and
    E9 (dies, nominal frequency, sigma scale) take typed parameter records.
    Omitting [params] uses each module's [default], and every other entry
    point ({!find}, {!all}) runs at defaults — so default output is
    byte-identical to the unparameterized experiments. *)

val run_e3 : ?params:E3_pipelining.params -> unit -> Exp.result
val run_e4 : ?params:E4_fo4_depth.params -> unit -> Exp.result
val run_e9 : ?params:E9_process_variation.params -> unit -> Exp.result

val summary : Exp.result list -> string
(** Pass/checkable counts per experiment plus a total line. *)
