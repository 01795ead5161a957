(* The [flow] workload: every design of the suite implemented three ways —
   the rich library at default effort then placement (delay-mode mapping),
   the poor library at low effort (area-mode mapping), and the LUT fabric
   (the shared cut database a third way). One operation is one design
   taken through all three: a single implementation is too short to time
   steadily on a shared machine. Every netlist is simulated against its
   AIG. *)

module Aig = Gap_logic.Aig
module Flow = Gap_synth.Flow
module Sim = Gap_netlist.Sim
module Backend = Gap_fpga.Backend

let vectors_per_design = 256

let designs (ctx : Common.ctx) =
  Synth_layers.structured ctx.Common.scale
  @
  match ctx.Common.scale with
  | Common.Full -> Synth_layers.random_designs ~seed:ctx.Common.seed
  | Common.Smoke -> []

let implementations ~rich ~poor =
  [
    ( "rich",
      fun (d : Synth_layers.design) ->
        let o = Flow.run ~lib:rich ~name:d.name d.aig in
        ignore (Gap_place.Placer.place o.Flow.netlist);
        o.Flow.netlist );
    ( "poor",
      fun d -> (Flow.run ~lib:poor ~effort:Flow.low_effort ~name:d.name d.aig).Flow.netlist );
    ("fpga", fun d -> (Backend.implement (Backend.fpga ()) ~name:d.name d.aig).Backend.netlist);
  ]

(* [Some reason] unless every netlist computes what its AIG computes on
   seeded vectors. *)
let check ~seed (d : Synth_layers.design) netlists =
  let rng = Gap_util.Rng.create ~seed:(Int64.of_int (seed * 7919)) () in
  let vectors =
    List.init vectors_per_design (fun _ ->
        let v = Array.init (Aig.num_inputs d.aig) (fun _ -> Gap_util.Rng.bool rng) in
        (v, Aig.eval d.aig v))
  in
  let problem (impl, nl) =
    match
      List.length
        (List.filter
           (fun (v, expect) ->
             let got = Sim.eval nl (Sim.initial nl) v in
             not (Array.length got = Array.length expect && Array.for_all2 Bool.equal got expect))
           vectors)
    with
    | 0 -> None
    | bad ->
        Some
          (Printf.sprintf "%s/%s: %d of %d vectors disagree with the AIG" d.name impl bad
             vectors_per_design)
    | exception e ->
        Some (Printf.sprintf "%s/%s: simulation raised %s" d.name impl (Printexc.to_string e))
  in
  match List.filter_map problem netlists with
  | [] -> None
  | problems -> Some (String.concat "; " problems)

let run (ctx : Common.ctx) =
  let r = Common.empty_report () in
  let designs = designs ctx in
  let impls =
    implementations ~rich:(Synth_layers.rich_lib ()) ~poor:(Synth_layers.poor_lib ())
  in
  let ops =
    List.map
      (fun (d : Synth_layers.design) ->
        ( "flow." ^ d.name,
          (fun () -> List.map (fun (impl, f) -> (impl, f d)) impls),
          check ~seed:ctx.Common.seed d ))
      designs
  in
  Common.setup_done ctx r;
  Common.batch ctx r ~ops ~attribution:(fun () -> Synth_layers.run designs)
