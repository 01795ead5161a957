module Netlist = Gap_netlist.Netlist
module Cell = Gap_liberty.Cell
module Library = Gap_liberty.Library
module Hold = Gap_sta.Hold

type result = {
  buffers_inserted : int;
  area_added_um2 : float;
  iterations : int;
  clean : bool;
}

let delay_cells lib =
  match Library.buffers lib with
  | b :: _ -> [ b ]
  | [] -> (
      match Library.inverters lib with
      | i :: _ -> [ i; i ] (* pair keeps polarity *)
      | [] -> failwith "Hold_fix: library has neither buffers nor inverters")

(* padding passes before the fix gives up *)
let max_iterations = 10

let fix_body ~skew_ps nl =
  let lib = Netlist.lib nl in
  let cells = delay_cells lib in
  let unit_delay =
    List.fold_left (fun acc (c : Cell.t) -> acc +. c.Cell.intrinsic_ps) 0. cells
  in
  let inserted = ref 0 and area = ref 0. in
  let pad_pin ~inst ~pin units =
    for _ = 1 to units do
      List.iter
        (fun cell ->
          let net = (Netlist.fanins_of nl inst).(pin) in
          let buf = Netlist.add_cell nl cell [| net |] in
          Netlist.rewire_pin nl ~inst ~pin (Netlist.out_net nl buf);
          incr inserted;
          area := !area +. cell.Cell.area_um2)
        cells
    done
  in
  let rec loop iter =
    let h = Hold.analyze ~skew_ps nl in
    match h.Hold.violations with
    | [] -> (iter, true)
    | violations when iter >= max_iterations -> (iter, violations = [])
    | violations ->
        List.iter
          (fun (v : Hold.violation) ->
            let units =
              int_of_float (ceil (-.v.Hold.slack_ps /. Float.max 1. unit_delay))
            in
            pad_pin ~inst:v.Hold.flop ~pin:0 (max 1 units))
          violations;
        loop (iter + 1)
  in
  let iterations, clean = loop 0 in
  let r = { buffers_inserted = !inserted; area_added_um2 = !area; iterations; clean } in
  Gap_obs.Obs.incr ~by:r.buffers_inserted "synth.hold_buffers_inserted";
  r

let fix ?(skew_ps = 0.) nl =
  let r = Gap_obs.Obs.span "synth.hold_fix" (fun () -> fix_body ~skew_ps nl) in
  Gap_netlist.Check.gate ~stage:"synth.hold_fix" nl;
  r
