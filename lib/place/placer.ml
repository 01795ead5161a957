module Netlist = Gap_netlist.Netlist
module Rng = Gap_util.Rng
module Obs = Gap_obs.Obs
module Json = Gap_obs.Json

(* anneal move-cost deltas are signed um; net degrees are small ints *)
let move_delta_bounds_um =
  [|
    -1000.; -300.; -100.; -30.; -10.; -3.; -1.; 0.; 1.; 3.; 10.; 30.; 100.;
    300.; 1000.;
  |]

let net_degree_bounds =
  [| 1.; 2.; 3.; 4.; 6.; 8.; 12.; 16.; 24.; 32.; 48.; 64.; 96.; 128. |]

type options = {
  utilization : float;
  sweeps : int;
  seed : int64;
  net_weights : (int -> float) option;
}

let default_options =
  { utilization = 0.6; sweeps = 50; seed = 7L; net_weights = None }

type stats = {
  site_pitch_um : float;
  grid_side : int;
  initial_hpwl_um : float;
  final_hpwl_um : float;
  moves_accepted : int;
}

let die_side_um nl = sqrt (Netlist.area_um2 nl /. default_options.utilization)

(* Geometric cooling: the temperature decays from [t0] to
   [cooling_rate * t0] over the sweep schedule, i.e.
   T(sweep) = t0 * cooling_rate^(sweep / (sweeps - 1)).
   0.002 leaves the final sweeps effectively greedy (hill-climbing) while the
   early ones still accept sizeable uphill moves. *)
let cooling_rate = 0.002

(* The grid: side x side sites; slot s -> (x, y). Some slots are empty. *)
type grid = {
  pitch : float;
  side : int;
  slot_of_inst : int array;
  inst_of_slot : int array; (* -1 = empty *)
}

let slot_xy g s =
  let x = float_of_int (s mod g.side) *. g.pitch in
  let y = float_of_int (s / g.side) *. g.pitch in
  (x, y)

let commit nl g =
  Array.iteri
    (fun i s ->
      let x, y = slot_xy g s in
      Netlist.place nl i ~x_um:x ~y_um:y)
    g.slot_of_inst

let build_grid ~utilization ~rng ~random_init nl =
  let n = Netlist.num_instances nl in
  let avg_area = if n = 0 then 10. else Netlist.area_um2 nl /. float_of_int n in
  let pitch = sqrt avg_area in
  let side =
    let s = int_of_float (ceil (sqrt (float_of_int n /. utilization))) in
    max 1 s
  in
  let slots = side * side in
  let slot_of_inst = Array.make (max 1 n) 0 in
  let inst_of_slot = Array.make slots (-1) in
  let order = Array.init slots (fun s -> s) in
  if random_init then Rng.shuffle rng order;
  for i = 0 to n - 1 do
    let s = order.(i) in
    slot_of_inst.(i) <- s;
    inst_of_slot.(s) <- i
  done;
  { pitch; side; slot_of_inst; inst_of_slot }

(* Merge two sorted deduplicated id arrays into [out]; returns the length of
   the union. [out] must be large enough to hold it. *)
let merge_union a b out =
  let la = Array.length a and lb = Array.length b in
  let ka = ref 0 and kb = ref 0 and m = ref 0 in
  while !ka < la && !kb < lb do
    let x = a.(!ka) and y = b.(!kb) in
    let v =
      if x < y then begin incr ka; x end
      else if y < x then begin incr kb; y end
      else begin incr ka; incr kb; x end
    in
    out.(!m) <- v;
    incr m
  done;
  while !ka < la do
    out.(!m) <- a.(!ka);
    incr ka;
    incr m
  done;
  while !kb < lb do
    out.(!m) <- b.(!kb);
    incr kb;
    incr m
  done;
  !m

let anneal_body ~options nl =
  let rng = Rng.create ~seed:options.seed () in
  let g = build_grid ~utilization:options.utilization ~rng ~random_init:true nl in
  commit nl g;
  let weights = match options.net_weights with Some w -> w | None -> fun _ -> 1. in
  let n = Netlist.num_instances nl in
  if n = 0 then
    {
      site_pitch_um = g.pitch;
      grid_side = g.side;
      initial_hpwl_um = 0.;
      final_hpwl_um = 0.;
      moves_accepted = 0;
    }
  else begin
    let cache = Hpwl.Cache.create nl in
    let inst_nets = Array.init n (Hpwl.Cache.nets_of_instance cache) in
    let initial = Hpwl.total_um nl in
    let unweighted = Option.is_none options.net_weights in
    (* weighted cost, accumulated in net order exactly as a from-scratch sum.
       When no weight function is given every weight is 1.0 and multiplying
       by it cannot change any float, so the unweighted path skips the
       closure call entirely. *)
    let lens = Hpwl.Cache.lengths cache in
    let cost =
      ref
        (let acc = ref 0. in
         for net = 0 to Netlist.num_nets nl - 1 do
           let len = lens.(net) in
           acc := !acc +. (if unweighted then len else weights net *. len)
         done;
         !acc)
    in
    let accepted = ref 0 and proposed = ref 0 in
    let obs_on = Obs.enabled () in
    if obs_on then begin
      Obs.annotate
        [
          ("instances", Json.Int n);
          ("nets", Json.Int (Netlist.num_nets nl));
          ("sweeps", Json.Int options.sweeps);
          ("grid_side", Json.Int g.side);
        ];
      (* net degree histogram: pins per net, via the per-instance net sets *)
      let deg = Array.make (max 1 (Netlist.num_nets nl)) 0 in
      Array.iter
        (fun nets -> Array.iter (fun net -> deg.(net) <- deg.(net) + 1) nets)
        inst_nets;
      Array.iter
        (fun d ->
          if d > 0 then
            Obs.observe ~bounds:net_degree_bounds "place.net_degree"
              (float_of_int d))
        deg
    end;
    let slots = g.side * g.side in
    (* scratch buffer for the union of two instances' net sets *)
    let max_deg = Array.fold_left (fun acc a -> max acc (Array.length a)) 0 inst_nets in
    let affected = Array.make (max 1 (2 * max_deg)) 0 in
    let weighted_sum =
      if unweighted then fun m ->
        let acc = ref 0. in
        for k = 0 to m - 1 do
          acc := !acc +. lens.(affected.(k))
        done;
        !acc
      else fun m ->
        let acc = ref 0. in
        for k = 0 to m - 1 do
          let net = affected.(k) in
          acc := !acc +. (weights net *. lens.(net))
        done;
        !acc
    in
    (* move: pick an instance and a random slot; swap or shift *)
    let try_move temperature =
      let i = Rng.int rng n in
      let target = Rng.int rng slots in
      let src = g.slot_of_inst.(i) in
      if target <> src then begin
        incr proposed;
        let j = g.inst_of_slot.(target) in
        let m =
          if j >= 0 then merge_union inst_nets.(i) inst_nets.(j) affected
          else begin
            let a = inst_nets.(i) in
            Array.blit a 0 affected 0 (Array.length a);
            Array.length a
          end
        in
        let before = weighted_sum m in
        Hpwl.Cache.snapshot cache affected m;
        (* apply *)
        let apply_slot inst slot =
          g.slot_of_inst.(inst) <- slot;
          g.inst_of_slot.(slot) <- inst;
          (* same arithmetic as [slot_xy], inlined to skip the pair *)
          let x = float_of_int (slot mod g.side) *. g.pitch in
          let y = float_of_int (slot / g.side) *. g.pitch in
          Hpwl.Cache.move cache inst ~x_um:x ~y_um:y
        in
        g.inst_of_slot.(src) <- (-1);
        apply_slot i target;
        if j >= 0 then apply_slot j src;
        let after = weighted_sum m in
        let delta = after -. before in
        if obs_on then
          Obs.observe ~bounds:move_delta_bounds_um "place.move_delta_um" delta;
        let accept =
          delta <= 0.
          || temperature > 0.
             && Rng.float rng 1. < exp (-.delta /. temperature)
        in
        if accept then begin
          cost := !cost +. delta;
          incr accepted
        end
        else begin
          (* revert: restore the grid assignment, the mirrored coordinates
             (the slot arithmetic reproduces the old floats exactly), and the
             snapshotted net boxes — no inverse moves, no recomputes *)
          g.slot_of_inst.(i) <- src;
          g.inst_of_slot.(src) <- i;
          if j >= 0 then begin
            g.slot_of_inst.(j) <- target;
            g.inst_of_slot.(target) <- j
          end
          else g.inst_of_slot.(target) <- (-1);
          let sx = float_of_int (src mod g.side) *. g.pitch in
          let sy = float_of_int (src / g.side) *. g.pitch in
          Hpwl.Cache.set_xy cache i ~x_um:sx ~y_um:sy;
          if j >= 0 then begin
            let tx = float_of_int (target mod g.side) *. g.pitch in
            let ty = float_of_int (target / g.side) *. g.pitch in
            Hpwl.Cache.set_xy cache j ~x_um:tx ~y_um:ty
          end;
          Hpwl.Cache.rollback cache affected m
        end
      end
    in
    (* initial temperature: scale of one move's cost change *)
    let t0 = Float.max 1. (!cost /. float_of_int (max 1 n)) in
    let sweeps = max 1 options.sweeps in
    (* trajectory sampling: ~16 points over the schedule, plus the last sweep *)
    let sample_every = max 1 (sweeps / 16) in
    let last_accepted = ref 0 and last_proposed = ref 0 in
    (* best-so-far checkpoint, snapshotted at sweep boundaries: if a sweep
       dies (an injected fault) the anneal degrades to this state instead of
       aborting the whole flow *)
    let best_cost = ref !cost in
    let best_slots = Array.copy g.slot_of_inst in
    let best_accepted = ref 0 in
    (try
       for sweep = 0 to sweeps - 1 do
         Gap_resilience.Fault.point "place.sweep";
         let temperature =
           t0 *. cooling_rate ** (float_of_int sweep /. float_of_int (max 1 (sweeps - 1)))
         in
         for _ = 1 to n do
           try_move temperature
         done;
         if !cost < !best_cost then begin
           best_cost := !cost;
           Array.blit g.slot_of_inst 0 best_slots 0 n;
           best_accepted := !accepted
         end;
         if obs_on && (sweep mod sample_every = 0 || sweep = sweeps - 1) then begin
           let window = !proposed - !last_proposed in
           let rate =
             if window = 0 then 0.
             else float_of_int (!accepted - !last_accepted) /. float_of_int window
           in
           Obs.event "place.sweep"
             [
               ("sweep", Json.Int sweep);
               ("temperature", Json.Float temperature);
               ("cost_um", Json.Float !cost);
               ("accept_rate", Json.Float rate);
               ("accepted", Json.Int !accepted);
             ];
           last_accepted := !accepted;
           last_proposed := !proposed
         end
       done
     with Gap_resilience.Stage_error.Stage_failure err ->
       (* graceful degradation: restore the checkpointed best assignment and
          finish with it; only typed failures are absorbed, real bugs
          (Invalid_argument and friends) still propagate *)
       Obs.incr "place.anneal_recoveries";
       Obs.event "place.recover"
         [
           ("error", Json.Str (Gap_resilience.Stage_error.to_string err));
           ("cost_um", Json.Float !best_cost);
         ];
       Array.blit best_slots 0 g.slot_of_inst 0 n;
       Array.fill g.inst_of_slot 0 slots (-1);
       Array.iteri (fun i s -> g.inst_of_slot.(s) <- i) g.slot_of_inst;
       accepted := !best_accepted);
    (* rejected moves leave netlist locations stale (rollback only restores
       the cache mirrors); write the final slot assignment back *)
    commit nl g;
    let final_hpwl = Hpwl.total_um nl in
    if obs_on then begin
      Obs.incr ~by:!proposed "place.moves_proposed";
      Obs.incr ~by:!accepted "place.moves_accepted";
      Obs.gauge "place.initial_hpwl_um" initial;
      Obs.gauge "place.final_hpwl_um" final_hpwl
    end;
    {
      site_pitch_um = g.pitch;
      grid_side = g.side;
      initial_hpwl_um = initial;
      final_hpwl_um = final_hpwl;
      moves_accepted = !accepted;
    }
  end

let anneal ?(options = default_options) nl =
  let r = Obs.span "place.anneal" (fun () -> anneal_body ~options nl) in
  Gap_netlist.Check.gate ~placed:true ~stage:"place.anneal" nl;
  r

let place ?options nl = anneal ?options nl

let place_random_body ~seed nl =
  let rng = Rng.create ~seed () in
  let g = build_grid ~utilization:default_options.utilization ~rng ~random_init:true nl in
  commit nl g;
  let h = Hpwl.total_um nl in
  {
    site_pitch_um = g.pitch;
    grid_side = g.side;
    initial_hpwl_um = h;
    final_hpwl_um = h;
    moves_accepted = 0;
  }

let place_random ?(seed = 11L) nl =
  let r = Obs.span "place.random" (fun () -> place_random_body ~seed nl) in
  Gap_netlist.Check.gate ~placed:true ~stage:"place.random" nl;
  r
