(** Closing combinational loops through registers: turns a mapped
    combinational netlist with explicit state-in/state-out ports into a
    sequential machine.

    The FSM generator (and any feedback design) is synthesized as pure
    combinational logic whose current-state bits are primary inputs and
    next-state bits primary outputs; [close_loops] rebuilds the netlist with
    a flop per loop, removing both ports. This keeps the technology mapper
    oblivious to sequential structure. *)

val close_loops :
  loops:(string * string) list -> Gap_netlist.Netlist.t -> Gap_netlist.Netlist.t
(** [close_loops ~loops nl] returns a fresh netlist in which, for every
    [(input_name, output_name)] pair, the primary input is replaced by the Q
    of a new flop whose D is the net of the named output, and both ports
    disappear from the interface. Port order of the remaining ports is
    preserved. Every flop is the library's smallest.

    Raises [Invalid_argument] if a named port is missing. *)
