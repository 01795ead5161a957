module Netlist = Gap_netlist.Netlist

let close_loops ~loops nl =
  let lib = Netlist.lib nl in
  let flop = Gap_liberty.Library.smallest_flop lib in
  let input_names = List.map fst loops in
  let output_names = List.map snd loops in
  let find_input name =
    let rec go i =
      if i >= Netlist.num_inputs nl then
        invalid_arg (Printf.sprintf "Sequential.close_loops: no input %s" name)
      else if Netlist.input_name nl i = name then i
      else go (i + 1)
    in
    go 0
  in
  let find_output name =
    let rec go i =
      if i >= Netlist.num_outputs nl then
        invalid_arg (Printf.sprintf "Sequential.close_loops: no output %s" name)
      else if Netlist.output_name nl i = name then i
      else go (i + 1)
    in
    go 0
  in
  List.iter (fun n -> ignore (find_input n)) input_names;
  List.iter (fun n -> ignore (find_output n)) output_names;
  let out = Netlist.create ~lib (Netlist.name nl) in
  (* old net id -> new net id *)
  let net_map = Hashtbl.create 64 in
  (* non-loop inputs *)
  for port = 0 to Netlist.num_inputs nl - 1 do
    let name = Netlist.input_name nl port in
    if not (List.mem name input_names) then
      Hashtbl.replace net_map (Netlist.input_net nl port) (Netlist.add_input out name)
  done;
  (* one flop per loop, temporarily fed by a placeholder constant; its Q net
     stands in for the old state input's net *)
  let placeholder = Netlist.add_const out false in
  let loop_flops =
    List.map
      (fun (in_name, out_name) ->
        let inst = Netlist.add_cell out flop [| placeholder |] in
        let old_state_net = Netlist.input_net nl (find_input in_name) in
        Hashtbl.replace net_map old_state_net (Netlist.out_net out inst);
        (inst, find_output out_name))
      loops
  in
  (* clone constants *)
  for net = 0 to Netlist.num_nets nl - 1 do
    match Netlist.driver_of nl net with
    | Netlist.From_const b -> Hashtbl.replace net_map net (Netlist.add_const out b)
    | _ -> ()
  done;
  (* clone instances topologically (flop outputs are sources, so existing
     flops in [nl] need their Q nets pre-created: clone flops first with
     placeholder D, rewire after) *)
  let old_flops = Netlist.flops nl in
  let flop_clones =
    List.map
      (fun f ->
        let inst = Netlist.add_cell out (Netlist.cell_of nl f) [| placeholder |] in
        Hashtbl.replace net_map (Netlist.out_net nl f) (Netlist.out_net out inst);
        (f, inst))
      old_flops
  in
  let order = Netlist.topo_instances nl in
  Array.iter
    (fun i ->
      if not (Netlist.is_flop nl i) then begin
        let fanins =
          Array.map
            (fun net ->
              match Hashtbl.find_opt net_map net with
              | Some n -> n
              | None -> failwith "Sequential.close_loops: unmapped fanin")
            (Netlist.fanins_of nl i)
        in
        let inst = Netlist.add_cell out (Netlist.cell_of nl i) fanins in
        Hashtbl.replace net_map (Netlist.out_net nl i) (Netlist.out_net out inst)
      end)
    order;
  (* rewire all flop D pins to their real sources *)
  List.iter
    (fun (old_f, new_f) ->
      let d_old = (Netlist.fanins_of nl old_f).(0) in
      Netlist.rewire_pin out ~inst:new_f ~pin:0 (Hashtbl.find net_map d_old))
    flop_clones;
  List.iter
    (fun (inst, out_port) ->
      let d_old = Netlist.output_net nl out_port in
      Netlist.rewire_pin out ~inst ~pin:0 (Hashtbl.find net_map d_old))
    loop_flops;
  (* non-loop outputs *)
  for port = 0 to Netlist.num_outputs nl - 1 do
    let name = Netlist.output_name nl port in
    if not (List.mem name output_names) then
      ignore (Netlist.set_output out name (Hashtbl.find net_map (Netlist.output_net nl port)))
  done;
  out
