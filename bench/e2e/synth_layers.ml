(* The design suite and the synthesis attribution pass.

   The pass calls each flow layer's public function directly, in the order
   [Gap_synth.Flow.run] calls them, and times every call from outside; no
   span inside the library is involved. Mapping is split further: the
   harness enumerates cuts, computes every cut function and looks each one
   up in the library, which is the work [Mapper.map_aig] does per cut. *)

module Aig = Gap_logic.Aig
module Tt = Gap_logic.Truthtable
module Library = Gap_liberty.Library
module Netlist = Gap_netlist.Netlist
module Synth = Gap_synth
module Placer = Gap_place.Placer
module Fpga = Gap_fpga

let tech = Gap_tech.Tech.asic_025um
let rich_lib () = Gap_liberty.Libgen.(make tech rich)
let poor_lib () = Gap_liberty.Libgen.(make tech poor)

type design = { name : string; aig : Aig.t }

(* The structured datapaths and controller the experiments map. *)
let structured = function
  | Common.Full ->
      [
        { name = "alu32"; aig = Gap_datapath.Alu.alu 32 };
        { name = "ks32"; aig = Gap_datapath.Adders.kogge_stone_adder 32 };
        { name = "cla16"; aig = Gap_datapath.Adders.cla_adder 16 };
        { name = "mult8"; aig = Gap_datapath.Multiplier.array_multiplier ~width:8 };
        {
          name = "bus_interface";
          aig = Gap_datapath.Fsm.to_aig Gap_datapath.Fsm.bus_interface;
        };
      ]
  | Common.Smoke ->
      [
        { name = "cla4"; aig = Gap_datapath.Adders.cla_adder 4 };
        { name = "counter3"; aig = Gap_datapath.Fsm.to_aig (Gap_datapath.Fsm.counter ~bits:3) };
      ]

(* The designs most experiments map: E3 pipelines a multiplier, E7 and E8
   map both. The [tables] attribution pass runs on these, since the
   experiments build their AIGs internally. *)
let experiment_designs = function
  | Common.Full ->
      List.filter (fun d -> d.name = "cla16" || d.name = "mult8") (structured Common.Full)
  | Common.Smoke -> structured Common.Smoke

(* Two random-logic blocks drawn from the workload seed: the part of the
   suite a claim can be re-checked on with a held-out seed. *)
let random_designs ~seed =
  let rng = Gap_util.Rng.create ~seed:(Int64.of_int seed) () in
  List.map
    (fun tag ->
      let s = Gap_util.Rng.int64 rng in
      {
        name = Printf.sprintf "rand%s" tag;
        aig = Gap_datapath.Random_logic.generate ~seed:s ~inputs:48 ~outputs:24 ~gates:1000 ();
      })
    [ "a"; "b" ]

(* --- the attribution pass --- *)

(* Per-layer totals by metric name, plus the distinct cut functions. *)
type acc = { totals : (string, float) Hashtbl.t; distinct : (int * int64, unit) Hashtbl.t }

let add acc name v =
  Hashtbl.replace acc.totals name (v +. Option.value ~default:0. (Hashtbl.find_opt acc.totals name))

let count acc name n = add acc name (float_of_int n)

let timed acc name f =
  let r, dt = Common.timed f in
  add acc name dt;
  r

let map acc ~lib ~mode g =
  let w0 = Gc.minor_words () in
  let nl = timed acc "synth.map.wall_s" (fun () -> Synth.Mapper.map_aig ~lib ~mode g) in
  add acc "synth.map.minor_mwords" ((Gc.minor_words () -. w0) /. 1e6);
  nl

(* The per-cut work of one mapping pass over [g]: enumerate, compute every
   non-trivial cut's function, match each function against [lib]. *)
let cut_layers acc ~lib g =
  count acc "synth.aig_nodes" (Aig.num_nodes g);
  let cuts = timed acc "synth.cuts.wall_s" (fun () -> Synth.Cuts.enumerate g) in
  let work = ref [] in
  Array.iteri
    (fun id cs ->
      count acc "synth.cuts" (List.length cs);
      if Aig.is_and g id then
        List.iter
          (fun (c : Synth.Cuts.cut) ->
            if not (Synth.Cuts.size c = 1 && c.Synth.Cuts.leaves.(0) = id) then
              work := (id, c) :: !work)
          cs)
    cuts;
  let work = Array.of_list (List.rev !work) in
  let fns =
    timed acc "synth.cut_fn.wall_s" (fun () ->
        Array.map (fun (id, c) -> Synth.Cuts.cut_function g id c) work)
  in
  let matches =
    timed acc "liberty.match.wall_s" (fun () -> Array.map (Library.cells_matching lib) fns)
  in
  count acc "synth.cut_fns" (Array.length fns);
  Array.iter (fun f -> Hashtbl.replace acc.distinct (Tt.vars f, Tt.bits f) ()) fns;
  Array.iter (function [] -> count acc "liberty.match_empty" 1 | _ -> ()) matches

(* One design, both ASIC implementations and the FPGA one, layer by layer:
   the rich library with [Flow.default_effort] then placement, the poor
   library with [Flow.low_effort], and the LUT fabric. *)
let design acc ~rich ~poor d =
  let eff = Synth.Flow.default_effort and low = Synth.Flow.low_effort in
  let gb = timed acc "synth.balance.wall_s" (fun () -> Synth.Balance.balance d.aig) in
  let nl = map acc ~lib:rich ~mode:eff.Synth.Flow.mode gb in
  cut_layers acc ~lib:rich gb;
  let max_fanout = Option.value ~default:8 eff.Synth.Flow.buffer_max_fanout in
  count acc "synth.buffers"
    (timed acc "synth.buffer.wall_s" (fun () -> Synth.Buffering.buffer_fanout ~max_fanout nl));
  let sz =
    timed acc "synth.sizing.wall_s" (fun () ->
        Synth.Sizing.tilos ~config:eff.Synth.Flow.sta_config ~max_moves:eff.Synth.Flow.tilos_moves
          nl)
  in
  count acc "synth.sizing_moves" sz.Synth.Sizing.moves;
  ignore
    (timed acc "sta.analyze.wall_s" (fun () ->
         Gap_sta.Sta.analyze ~config:eff.Synth.Flow.sta_config nl));
  let ps = timed acc "place.anneal.wall_s" (fun () -> Placer.place nl) in
  count acc "place.moves_accepted" ps.Placer.moves_accepted;
  let nl_poor = map acc ~lib:poor ~mode:low.Synth.Flow.mode d.aig in
  cut_layers acc ~lib:poor d.aig;
  ignore
    (timed acc "sta.analyze.wall_s" (fun () ->
         Gap_sta.Sta.analyze ~config:low.Synth.Flow.sta_config nl_poor));
  count acc "synth.cells" (Netlist.num_instances nl + Netlist.num_instances nl_poor);
  ignore
    (timed acc "fpga.implement.wall_s" (fun () ->
         Fpga.Backend.implement (Fpga.Backend.fpga ()) ~name:d.name d.aig));
  let lm = Fpga.Lutmap.map ~fabric:Fpga.Fabric.logic gb in
  count acc "fpga.luts" lm.Fpga.Lutmap.luts;
  count acc "fpga.lut_levels" lm.Fpga.Lutmap.levels

(* (metric name, value) for every synthesis-side per-layer metric. *)
let run designs =
  let acc = { totals = Hashtbl.create 32; distinct = Hashtbl.create 4096 } in
  let rich = rich_lib () and poor = poor_lib () in
  List.iter (design acc ~rich ~poor) designs;
  let get name = Option.value ~default:0. (Hashtbl.find_opt acc.totals name) in
  ("synth.cut_fns_distinct", float_of_int (Hashtbl.length acc.distinct))
  :: ("liberty.match_empty_frac", get "liberty.match_empty" /. Float.max 1. (get "synth.cut_fns"))
  :: List.of_seq (Hashtbl.to_seq acc.totals)
