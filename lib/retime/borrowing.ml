module Netlist = Gap_netlist.Netlist
module Sta = Gap_sta.Sta
module Cell = Gap_liberty.Cell

type clocking = Edge_ff | Two_phase_latch of float

let window period = function
  | Edge_ff -> 0.
  | Two_phase_latch duty ->
      assert (duty > 0. && duty < 1.);
      duty *. period

let feasible ?(ring = false) ~stage_delays ~period clocking =
  let b = window period clocking in
  let n = Array.length stage_delays in
  assert (n >= 1);
  let propagate t0 =
    (* returns departure after the last stage, or None if any arrival misses
       its latch window *)
    let t = ref t0 in
    let ok = ref true in
    Array.iter
      (fun d ->
        let arrive = !t +. d -. period in
        if arrive > b +. 1e-9 then ok := false;
        t := Float.max 0. arrive)
      stage_delays;
    if !ok then Some !t else None
  in
  if not ring then Option.is_some (propagate 0.)
  else begin
    (* fixpoint around the loop: departures must be self-consistent *)
    let rec iterate t0 rounds =
      if rounds > n + 1 then false
      else
        match propagate t0 with
        | None -> false
        | Some t1 -> if t1 <= t0 +. 1e-9 then true else iterate t1 (rounds + 1)
    in
    iterate 0. 0
  end

let min_period ?(ring = false) ~stage_delays clocking =
  let total = Array.fold_left ( +. ) 0. stage_delays in
  let worst = Array.fold_left Float.max 0. stage_delays in
  let n = float_of_int (Array.length stage_delays) in
  (* bounds: never below the average (throughput), never above the worst
     stage (which is always feasible, even for flops) *)
  let lo = ref (Float.max 1e-9 (total /. n /. 2.)) and hi = ref (Float.max worst 1e-9) in
  while !hi -. !lo > 1e-3 do
    let mid = (!lo +. !hi) /. 2. in
    if feasible ~ring ~stage_delays ~period:mid clocking then hi := mid else lo := mid
  done;
  !hi

let borrowing_gain ?(ring = false) ~stage_delays ~duty () =
  let ff = min_period ~ring ~stage_delays Edge_ff in
  let latch = min_period ~ring ~stage_delays (Two_phase_latch duty) in
  ff /. latch

let stage_delays_of_pipeline nl ~config =
  let sta = Sta.analyze ~config nl in
  (* rank of each net: how many register ranks lie between the inputs and
     this net's driver *)
  let rank = Array.make (max 1 (Netlist.num_nets nl)) 0 in
  let flop_stage = Hashtbl.create 16 in
  let order = Netlist.topo_instances nl in
  (* flop Q nets must be ranked before their sinks; topo order covers comb
     paths, and flop ranks depend only on their D cone, so process flops by
     increasing D rank: iterate passes until stable (pipelines are shallow) *)
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun i ->
        if not (Netlist.is_flop nl i) then begin
          let fanins = Netlist.fanins_of nl i in
          let r = Array.fold_left (fun acc net -> max acc rank.(net)) 0 fanins in
          let onet = Netlist.out_net nl i in
          if rank.(onet) <> r then begin
            rank.(onet) <- r;
            changed := true
          end
        end)
      order;
    List.iter
      (fun f ->
        let d_net = (Netlist.fanins_of nl f).(0) in
        let stage = rank.(d_net) in
        (match Hashtbl.find_opt flop_stage f with
        | Some s when s = stage -> ()
        | _ ->
            Hashtbl.replace flop_stage f stage;
            changed := true);
        let q = Netlist.out_net nl f in
        if rank.(q) <> stage + 1 then begin
          rank.(q) <- stage + 1;
          changed := true
        end)
      (Netlist.flops nl)
  done;
  let n_stages =
    let m = ref 0 in
    Array.iter (fun r -> if r > !m then m := r) rank;
    !m + 1
  in
  let delays = Array.make n_stages 0. in
  (* flop endpoints: arrival at D + setup belongs to the flop's stage *)
  Hashtbl.iter
    (fun f stage ->
      let cell = Netlist.cell_of nl f in
      let setup =
        match Cell.seq_timing cell with Some s -> s.Cell.setup_ps | None -> 0.
      in
      let d_net = (Netlist.fanins_of nl f).(0) in
      let d = sta.Sta.arrival.(d_net) +. setup in
      if d > delays.(stage) then delays.(stage) <- d)
    flop_stage;
  (* primary-output endpoints belong to their net's stage *)
  for port = 0 to Netlist.num_outputs nl - 1 do
    let net = Netlist.output_net nl port in
    let stage = rank.(net) in
    if sta.Sta.arrival.(net) > delays.(stage) then delays.(stage) <- sta.Sta.arrival.(net)
  done;
  delays
