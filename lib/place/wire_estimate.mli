(** Post-placement parasitic annotation.

    Turns placed instance locations into per-net wire capacitance and delay
    (HPWL length, technology RC, optimal repeaters for long nets) and writes
    them into the netlist for {!Gap_sta.Sta} to pick up: the "after layout"
    timing the paper contrasts with synthesis-time estimates (Sec. 6.2). *)

val annotate : Gap_netlist.Netlist.t -> unit
(** Sets [wire_cap_ff] and [wire_delay_ps] on every net with placed pins.
    Nets longer than the repeater break-even get the repeated-wire delay,
    others the bare Elmore wire delay (the driver-resistance term is already
    handled by STA through the wire cap). *)

val clear : Gap_netlist.Netlist.t -> unit
