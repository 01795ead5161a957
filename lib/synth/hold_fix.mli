(** Hold fixing: padding short paths until every register's hold constraint
    is met under the skew budget.

    This is the flow stage behind Sec. 4.1's observation that ASIC registers
    "have to be more tolerant to clock skew": tolerance is bought either
    inside the cell or, as here, with explicit delay (buffer chains) inserted
    before violating D pins. The cost is area and power — part of the ASIC
    overhead the paper prices. *)

type result = {
  buffers_inserted : int;
  area_added_um2 : float;
  iterations : int;
  clean : bool;  (** all hold endpoints non-negative afterwards *)
}

val fix : ?skew_ps:float -> Gap_netlist.Netlist.t -> result
(** Inserts minimum-size buffers in front of violating flop D pins until
    {!Gap_sta.Hold.analyze} is clean or 10 passes elapse. Mutates the
    netlist; logic function is unchanged (buffers are non-inverting). Uses
    inverter pairs when the library has no buffer. *)
