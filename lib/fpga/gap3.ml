module Netlist = Gap_netlist.Netlist
module Power_est = Gap_netlist.Power_est
module Cell = Gap_liberty.Cell
module Sta = Gap_sta.Sta
module Charm = Gap_tech.Charm
module Json = Gap_obs.Json
module Obs = Gap_obs.Obs

type side = {
  area_um2 : float;
  min_period_ps : float;
  freq_mhz : float;
  dynamic_mw : float;
}

type pair = {
  design : string;
  luts : int;
  lut_levels : int;
  fpga : side;
  asic : side;
  area_ratio : float;
  freq_ratio : float;
  power_ratio : float;
}

type summary = {
  variant : Charm.variant;
  target : Charm.ratios;
  pairs : pair list;
  area_ratio : float;
  freq_ratio : float;
  power_ratio : float;
  lut_share : float;  (** LUT-logic fraction of the FPGA critical period *)
  route_share : float;  (** interconnect fraction *)
}

(* The fixture suites. Combinational datapath cores, sized so a full
   three-variant measurement stays fast enough for the test suite and the
   campaign runner: the logic class drives the headline x35/x3.4/x14
   calibration; the DSP class is multiplier-array silicon; the memory class
   is mux-tree (LUT-RAM-shaped) silicon. *)
let fixtures_of = function
  | Charm.Logic ->
      [
        ("cla16", Gap_datapath.Adders.cla_adder 16);
        ("alu8", Gap_datapath.Alu.alu 8);
        ("pop16", Gap_datapath.Counting.popcount ~width:16);
      ]
  | Charm.Logic_dsp | Charm.Logic_memory_dsp ->
      [ ("mult8", Gap_datapath.Multiplier.array_multiplier ~width:8) ]
  | Charm.Logic_memory -> [ ("shift32", Gap_datapath.Shifter.barrel_shifter ~width:32) ]

(* levels of combinational instances between timing sources and endpoints *)
let comb_depth nl =
  let lvl = Array.make (max 1 (Netlist.num_nets nl)) 0 in
  let deepest = ref 0 in
  Array.iter
    (fun i ->
      if not (Netlist.is_flop nl i) then begin
        let d = ref 0 in
        Netlist.iter_fanins nl i (fun f -> if lvl.(f) > !d then d := lvl.(f));
        let d = !d + 1 in
        lvl.(Netlist.out_net nl i) <- d;
        if d > !deepest then deepest := d
      end)
    (Netlist.topo_instances nl);
  !deepest

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
      exp (List.fold_left (fun a x -> a +. log x) 0. xs /. float_of_int (List.length xs))

(* Split an implementation's critical path into cell time and interconnect
   time. Path steps carry [incr_ps] = cell delay + output wire delay for the
   worst edge, so subtracting the annotated wire delay of each step's net
   recovers the cell part. *)
let path_shares (impl : Backend.impl) =
  let cellt = ref 0. and wiret = ref 0. in
  List.iter
    (fun (s : Sta.step) ->
      match s.Sta.inst with
      | Some _ ->
          let w = Netlist.wire_delay_ps impl.Backend.netlist s.Sta.net in
          wiret := !wiret +. w;
          cellt := !cellt +. Float.max 0. (s.Sta.incr_ps -. w)
      | None ->
          (* launch step: input arrival or flop clk->q + wire *)
          cellt := !cellt +. s.Sta.incr_ps)
    impl.Backend.sta.Sta.critical.Sta.steps;
  let total = Float.max 1e-9 (!cellt +. !wiret) in
  (!cellt /. total, !wiret /. total)

let measure_side ~vectors ~freq_mhz (impl : Backend.impl) =
  let p = Power_est.estimate ~vectors impl.Backend.netlist ~freq_mhz in
  {
    area_um2 = impl.Backend.area_um2;
    min_period_ps = impl.Backend.min_period_ps;
    freq_mhz = impl.Backend.freq_mhz;
    dynamic_mw = p.Power_est.dynamic_mw;
  }

let default_vectors = 256

let asic_backend () =
  let lib = Gap_liberty.Libgen.make Gap_tech.Tech.asic_025um Gap_liberty.Libgen.rich in
  Backend.asic ~lib ()

let measure ?(vectors = default_vectors) variant =
  Obs.span "fpga.gap3" (fun () ->
      let fabric = Fabric.of_variant variant in
      let asic = asic_backend () in
      let fpga = Backend.fpga ~fabric () in
      let shares = ref [] in
      let pairs =
        List.map
          (fun (design, g) ->
            let a = Backend.implement asic ~name:design g in
            let f = Backend.implement fpga ~name:design g in
            (* Charm compares dynamic power with both parts at the same
               clock (a switched-capacitance ratio), so both sides are
               estimated at the ASIC's frequency *)
            let freq = a.Backend.freq_mhz in
            let aside = measure_side ~vectors ~freq_mhz:freq a in
            let fside = measure_side ~vectors ~freq_mhz:freq f in
            shares := path_shares f :: !shares;
            let luts, lut_levels =
              (* recover the mapper stats from the emitted netlist: every
                 combinational instance is one LUT tile *)
              let nl = f.Backend.netlist in
              (List.length (Netlist.combinational_instances nl), comb_depth nl)
            in
            {
              design;
              luts;
              lut_levels;
              fpga = fside;
              asic = aside;
              area_ratio = fside.area_um2 /. aside.area_um2;
              freq_ratio = aside.freq_mhz /. fside.freq_mhz;
              power_ratio = fside.dynamic_mw /. aside.dynamic_mw;
            })
          (fixtures_of variant)
      in
      let lut_share = geomean (List.map fst !shares)
      and route_share = geomean (List.map snd !shares) in
      let norm = lut_share +. route_share in
      {
        variant;
        target = Charm.ratios variant;
        pairs;
        area_ratio = geomean (List.map (fun (p : pair) -> p.area_ratio) pairs);
        freq_ratio = geomean (List.map (fun (p : pair) -> p.freq_ratio) pairs);
        power_ratio = geomean (List.map (fun (p : pair) -> p.power_ratio) pairs);
        lut_share = lut_share /. norm;
        route_share = route_share /. norm;
      })

(* --- factor products --- *)

(* Multiplicative attribution: a gap G with additive shares s_i (sum 1)
   decomposes exactly as the product of G^(s_i). The frequency gap uses the
   measured critical-path split; area and power use the fabric's documented
   routing fraction. *)
let factor_split ~gap ~shares =
  List.map (fun (name, s) -> (name, gap ** s)) shares

let freq_factors s =
  factor_split ~gap:s.freq_ratio
    ~shares:[ ("lut-logic", s.lut_share); ("routing", s.route_share) ]

let area_factors s =
  let fabric = Fabric.of_variant s.variant in
  let r = fabric.Fabric.tile_route_frac in
  factor_split ~gap:s.area_ratio
    ~shares:[ ("lut+config", 1. -. r); ("routing-fabric", r) ]

let power_factors s =
  let fabric = Fabric.of_variant s.variant in
  let r = fabric.Fabric.tile_route_frac in
  factor_split ~gap:s.power_ratio
    ~shares:[ ("lut-caps", 1. -. r); ("routing-caps", r) ]

(* --- the three-way decomposition --- *)

type t = {
  logic : summary;
  dsp : summary;
  memory : summary;
  asic_custom_speed : float;  (** the paper's predicted ASIC->custom gap *)
  asic_custom_factors : (string * float) list;
  fpga_custom_speed : float;  (** product of the two speed gaps *)
}

let run ?(vectors = default_vectors) () =
  let logic = measure ~vectors Charm.Logic in
  let dsp = measure ~vectors Charm.Logic_dsp in
  let memory = measure ~vectors Charm.Logic_memory in
  let asic_custom_speed = Gap_core.Gap_model.predicted_asic_custom_gap () in
  let asic_custom_factors =
    List.map
      (fun (f : Gap_core.Factors.t) -> (f.Gap_core.Factors.factor_name, f.Gap_core.Factors.modeled))
      (Gap_core.Factors.all ())
  in
  {
    logic;
    dsp;
    memory;
    asic_custom_speed;
    asic_custom_factors;
    fpga_custom_speed = logic.freq_ratio *. asic_custom_speed;
  }

(* --- the pipeline-stage showcase ---

   A pipelined fixture on the fabric, so stage-resolved STA has real stage
   boundaries to attribute slack to: shared by experiment E11's demo rows
   and [repro fpga-gap] (whose metrics document then carries the
   [sta.slack_by_stage.*] histograms that [repro report --by-stage]
   renders). *)

type staged = {
  pipeline : Gap_retime.Pipeline.result;
  stage_slacks : Sta.stage_slack list;
}

let stage_demo ?(stages = 4) () =
  let impl =
    Backend.implement
      (Backend.fpga ())
      ~name:"cla16-pipe"
      (Gap_datapath.Adders.cla_adder 16)
  in
  let nl = impl.Backend.netlist in
  let pipeline = Gap_retime.Pipeline.pipeline ~stages nl in
  (* the inserted register nets carry no hop annotation yet *)
  Route.annotate ~fabric:Fabric.logic nl;
  let sta = Sta.analyze nl in
  { pipeline; stage_slacks = Sta.slack_by_stage nl sta }

(* --- gating --- *)

let tolerance = 0.15

type gate = {
  metric : string;
  target_v : float;
  measured : float;
  ok : bool;
}

let gates_of summary =
  let g metric target_v measured =
    {
      metric = Printf.sprintf "%s.%s" (Charm.variant_name summary.variant) metric;
      target_v;
      measured;
      ok = Float.abs ((measured /. target_v) -. 1.) <= tolerance;
    }
  in
  [
    g "area" summary.target.Charm.area summary.area_ratio;
    g "freq" summary.target.Charm.freq summary.freq_ratio;
    g "dynamic-power" summary.target.Charm.dynamic_power summary.power_ratio;
  ]

let gates t = gates_of t.logic @ gates_of t.dsp @ gates_of t.memory

let ok t = List.for_all (fun g -> g.ok) (gates t)

(* --- rendering / JSON --- *)

let side_json s =
  Json.Obj
    [
      ("area_um2", Json.Float s.area_um2);
      ("min_period_ps", Json.Float s.min_period_ps);
      ("freq_mhz", Json.Float s.freq_mhz);
      ("dynamic_mw", Json.Float s.dynamic_mw);
    ]

let pair_json p =
  Json.Obj
    [
      ("design", Json.Str p.design);
      ("luts", Json.Int p.luts);
      ("fpga", side_json p.fpga);
      ("asic", side_json p.asic);
      ("area_ratio", Json.Float p.area_ratio);
      ("freq_ratio", Json.Float p.freq_ratio);
      ("power_ratio", Json.Float p.power_ratio);
    ]

let factors_json fs = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) fs)

let summary_json s =
  Json.Obj
    [
      ("variant", Json.Str (Charm.variant_name s.variant));
      ( "target",
        Json.Obj
          [
            ("area", Json.Float s.target.Charm.area);
            ("freq", Json.Float s.target.Charm.freq);
            ("dynamic_power", Json.Float s.target.Charm.dynamic_power);
          ] );
      ("designs", Json.List (List.map pair_json s.pairs));
      ("area_ratio", Json.Float s.area_ratio);
      ("freq_ratio", Json.Float s.freq_ratio);
      ("power_ratio", Json.Float s.power_ratio);
      ("freq_factors", factors_json (freq_factors s));
      ("area_factors", factors_json (area_factors s));
      ("power_factors", factors_json (power_factors s));
    ]

let to_json t =
  let gate_json g =
    Json.Obj
      [
        ("metric", Json.Str g.metric);
        ("target", Json.Float g.target_v);
        ("measured", Json.Float g.measured);
        ("ok", Json.Bool g.ok);
      ]
  in
  Json.Obj
    [
      ("version", Json.Int 1);
      ("tolerance", Json.Float tolerance);
      ("logic", summary_json t.logic);
      ("dsp", summary_json t.dsp);
      ("memory", summary_json t.memory);
      ("asic_custom_speed", Json.Float t.asic_custom_speed);
      ("asic_custom_factors", factors_json t.asic_custom_factors);
      ("fpga_custom_speed", Json.Float t.fpga_custom_speed);
      ("gates", Json.List (List.map gate_json (gates t)));
      ("ok", Json.Bool (ok t));
    ]

let render t =
  let buf = Buffer.create 2048 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "three-way FPGA / ASIC / custom gap decomposition";
  line "";
  List.iter
    (fun s ->
      line "[%s] target x%.0f area, x%.1f freq, x%.1f dyn power"
        (Charm.variant_name s.variant) s.target.Charm.area s.target.Charm.freq
        s.target.Charm.dynamic_power;
      List.iter
        (fun p ->
          line "  %-8s %5d LUTs   area x%-5.1f freq x%-4.2f power x%-5.1f"
            p.design p.luts p.area_ratio p.freq_ratio p.power_ratio)
        s.pairs;
      line "  geomean          area x%-5.1f freq x%-4.2f power x%-5.1f"
        s.area_ratio s.freq_ratio s.power_ratio;
      let fs = freq_factors s in
      line "  freq factor product: %s = x%.2f"
        (String.concat " * "
           (List.map (fun (k, v) -> Printf.sprintf "%s x%.2f" k v) fs))
        (List.fold_left (fun a (_, v) -> a *. v) 1. fs);
      line "")
    [ t.logic; t.dsp; t.memory ];
  line "ASIC -> custom speed gap (paper model): x%.2f" t.asic_custom_speed;
  line "  factors: %s"
    (String.concat " * "
       (List.map (fun (k, v) -> Printf.sprintf "%s x%.2f" k v) t.asic_custom_factors));
  line "FPGA -> custom speed gap: x%.2f (x%.2f FPGA->ASIC * x%.2f ASIC->custom)"
    t.fpga_custom_speed t.logic.freq_ratio t.asic_custom_speed;
  line "";
  List.iter
    (fun g ->
      line "%-28s target x%-5.1f measured x%-5.2f %s" g.metric g.target_v g.measured
        (if g.ok then "ok" else "OUT OF TOLERANCE"))
    (gates t);
  line "overall: %s (tolerance %.0f%%)" (if ok t then "ok" else "FAILED") (tolerance *. 100.);
  Buffer.contents buf
