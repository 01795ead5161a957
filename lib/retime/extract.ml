module Netlist = Gap_netlist.Netlist
module Cell = Gap_liberty.Cell
module Digraph = Gap_util.Digraph

type t = { graph : Digraph.t; delays : float array; node_of_inst : int array }

(* Walk forward from a net through flop chains, yielding each combinational
   sink (or output port) with the number of registers passed. *)
let rec forward nl net regs ~on_sink =
  List.iter
    (fun sink ->
      match sink with
      | Netlist.To_output _ -> on_sink `Out regs
      | Netlist.To_pin (inst, _) ->
          if Netlist.is_flop nl inst then
            forward nl (Netlist.out_net nl inst) (regs + 1) ~on_sink
          else on_sink (`Inst inst) regs)
    (Netlist.sinks_of nl net)

(* The graph stores register counts as edge weights (as floats); node delays
   live in [delays]. Host = node 0; the environment clocks outputs, so
   output->host edges carry one register. *)
let of_netlist nl =
  let g = Digraph.create () in
  let host = Digraph.add_node g in
  assert (host = 0);
  let comb = Netlist.combinational_instances nl in
  let node_of_inst = Array.make (max 1 (Netlist.num_instances nl)) (-1) in
  let delays = ref [ 0. ] in
  List.iter
    (fun inst ->
      let cell = Netlist.cell_of nl inst in
      let onet = Netlist.out_net nl inst in
      let d =
        Cell.delay_ps cell ~load_ff:(Netlist.net_load_ff nl onet)
        +. Netlist.wire_delay_ps nl onet
      in
      node_of_inst.(inst) <- Digraph.add_node g;
      delays := d :: !delays)
    comb;
  let delays = Array.of_list (List.rev !delays) in
  let edge src dst regs = Digraph.add_edge g ~weight:(float_of_int regs) src dst in
  List.iter
    (fun inst ->
      forward nl (Netlist.out_net nl inst) 0 ~on_sink:(fun dst regs ->
          match dst with
          | `Out -> edge node_of_inst.(inst) host (regs + 1)
          | `Inst i -> edge node_of_inst.(inst) node_of_inst.(i) regs))
    comb;
  let from_source net =
    forward nl net 0 ~on_sink:(fun dst regs ->
        match dst with
        | `Out -> () (* pure wire-through, no timing node *)
        | `Inst i -> edge host node_of_inst.(i) regs)
  in
  for port = 0 to Netlist.num_inputs nl - 1 do
    from_source (Netlist.input_net nl port)
  done;
  for net = 0 to Netlist.num_nets nl - 1 do
    match Netlist.driver_of nl net with
    | Netlist.From_const _ -> from_source net
    | _ -> ()
  done;
  { graph = g; delays; node_of_inst }

let feasible t ~period_ps =
  (* violation <=> a cycle with sum(delay src) > P * sum(regs)
     <=> a negative cycle under edge weight (P * regs - delay src) *)
  let check = Digraph.create () in
  Digraph.add_nodes check (Digraph.node_count t.graph);
  for u = 0 to Digraph.node_count t.graph - 1 do
    List.iter
      (fun (v, regs) ->
        Digraph.add_edge check ~weight:((period_ps *. regs) -. t.delays.(u)) u v)
      (Digraph.succ t.graph u)
  done;
  Option.is_some (Digraph.feasible_potentials check)

let sta_period_ps nl = (Gap_sta.Sta.analyze nl).Gap_sta.Sta.min_period_ps

let retiming_bound_ps nl =
  let t = of_netlist nl in
  let max_delay = Array.fold_left Float.max 0. t.delays in
  let hi0 = Float.max (sta_period_ps nl) max_delay in
  let lo = ref max_delay and hi = ref hi0 in
  (* the STA period is always feasible: every register-weighted cycle meets
     it by construction of the netlist timing *)
  if not (feasible t ~period_ps:!hi) then !hi
  else begin
    while !hi -. !lo > 0.5 do
      let mid = (!lo +. !hi) /. 2. in
      if feasible t ~period_ps:mid then hi := mid else lo := mid
    done;
    !hi
  end

let retiming_headroom nl = sta_period_ps nl /. retiming_bound_ps nl
