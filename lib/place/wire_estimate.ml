module Netlist = Gap_netlist.Netlist

let annotate nl =
  let tech = Gap_liberty.Library.tech (Netlist.lib nl) in
  let wire = Gap_interconnect.Wire.of_tech tech in
  let drv = Gap_interconnect.Repeater.default_driver tech in
  for net = 0 to Netlist.num_nets nl - 1 do
    let len = Hpwl.net_length_um nl net in
    if len > 0. then begin
      Netlist.set_wire_cap_ff nl net (Gap_interconnect.Wire.total_c_ff wire ~length_um:len);
      let bare = Gap_interconnect.Wire.rc_delay_ps wire ~length_um:len in
      let delay =
        Float.min bare (Gap_interconnect.Repeater.optimal_delay_ps drv wire ~length_um:len)
      in
      (* fault site: a corrupted (NaN) wire delay must be caught by the
         bad-parasitic gate rule or the supervised STA NaN scan downstream *)
      Netlist.set_wire_delay_ps nl net
        (Gap_resilience.Fault.corrupt_float "place.parasitic" delay)
    end
  done;
  Gap_netlist.Check.gate ~placed:true ~stage:"place.annotate" nl

let clear nl = Netlist.clear_parasitics nl
