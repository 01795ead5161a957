module Json = Gap_obs.Json
module Obs = Gap_obs.Obs
module Table = Gap_util.Table
module Supervisor = Gap_resilience.Supervisor
module Stage_error = Gap_resilience.Stage_error

type t = {
  name : string;
  domains : int;
  total : int;
  points : (Space.point * Eval.metrics) array;
  failed : (Space.point * Stage_error.t) list;
  stats : Cache.stats;
}

let stage = "dse.eval"

(* Interruption harness: sequential, store flushed after every fresh
   evaluation, stops after [budget] misses. Every prefix of this loop
   leaves a valid store on disk, so killing it mid-sweep is recoverable
   by construction. *)
let run_interruptible ~budget ~cache pts =
  let kept = ref [] and failed = ref [] and fresh = ref 0 in
  (try
     Array.iter
       (fun p ->
         if !fresh >= budget then raise Exit;
         let key = Key.of_point p in
         match Cache.find_keyed cache key with
         | Some m -> kept := (p, m) :: !kept
         | None -> (
             let o = Supervisor.run_stage ~stage (fun () -> Eval.point p) in
             match o.Supervisor.result with
             | Ok m ->
                 Cache.add_keyed cache key p m;
                 Cache.flush cache;
                 incr fresh;
                 kept := (p, m) :: !kept
             | Error e -> failed := (p, e) :: !failed))
       pts
   with Exit -> ());
  (Array.of_list (List.rev !kept), List.rev !failed)

let run_full ~domains ~cache pts =
  let keys = Array.map Key.of_point pts in
  let lookups = Array.map (Cache.find_keyed cache) keys in
  let miss_idx = ref [] in
  Array.iteri
    (fun i l -> if Option.is_none l then miss_idx := i :: !miss_idx)
    lookups;
  let miss_idx = Array.of_list (List.rev !miss_idx) in
  let misses = Array.map (fun i -> pts.(i)) miss_idx in
  let outcomes = Pool.map ~domains ~stage Eval.point misses in
  let failed = ref [] in
  Array.iteri
    (fun k i ->
      match outcomes.(k) with
      | Ok m ->
          lookups.(i) <- Some m;
          Cache.add_keyed cache keys.(i) pts.(i) m
      | Error e -> failed := (pts.(i), e) :: !failed)
    miss_idx;
  Cache.flush cache;
  let kept = ref [] in
  Array.iteri
    (fun i -> function Some m -> kept := (pts.(i), m) :: !kept | None -> ())
    lookups;
  (Array.of_list (List.rev !kept), List.rev !failed)

let run ?(domains = 1) ?capacity ?store ?stop_after ~name space =
  Eval.warmup ();
  Obs.span "dse.sweep" ~attrs:[ ("preset", Json.Str name) ] (fun () ->
      let cache = Cache.create ?capacity ?store () in
      let pts = Array.of_list (Space.enumerate space) in
      let points, failed =
        match stop_after with
        | Some budget -> run_interruptible ~budget ~cache pts
        | None -> run_full ~domains ~cache pts
      in
      Obs.incr ~by:(Array.length points) "dse.sweep.points";
      {
        name;
        domains;
        total = Array.length pts;
        points;
        failed;
        stats = Cache.stats cache;
      })

(* --- rendering --- *)

let axis_cells (p : Space.point) =
  [
    string_of_int p.Space.depth;
    Json.float_repr p.Space.logic_fo4;
    Space.sizing_name p.Space.sizing;
    Json.float_repr p.Space.skew_frac;
    (if p.Space.domino then "yes" else "no");
    (if p.Space.floorplan then "yes" else "no");
    (if p.Space.binning then "yes" else "no");
    Json.float_repr p.Space.sigma_scale;
    string_of_int p.Space.mc_dies;
    Space.backend_name p.Space.backend;
  ]

let axis_header =
  [ "depth"; "fo4"; "sizing"; "skew"; "domino"; "fplan"; "bin"; "sigma"; "dies";
    "tech" ]

let table r =
  let rows =
    Array.to_list r.points
    |> List.map (fun (p, (m : Eval.metrics)) ->
           axis_cells p
           @ [
               Table.fmt_float ~decimals:1 m.Eval.delay_ps;
               Table.fmt_float ~decimals:1 m.Eval.freq_mhz;
               Table.fmt_float ~decimals:3 m.Eval.area;
               Table.fmt_float ~decimals:3 m.Eval.power;
               Table.fmt_ratio m.Eval.composite;
             ])
  in
  Table.render
    ~header:
      (axis_header @ [ "delay_ps"; "freq_mhz"; "area"; "power"; "gap" ])
    rows

let point_metrics_json (p, m) =
  Json.Obj [ ("point", Space.point_json p); ("metrics", Eval.to_json m) ]

let cache_json (s : Cache.stats) =
  Json.Obj
    [
      ("hits", Json.Int s.Cache.hits);
      ("misses", Json.Int s.Cache.misses);
      ("hit_rate", Json.Float (Cache.hit_rate s));
      ("entries", Json.Int s.Cache.entries);
      ("evictions", Json.Int s.Cache.evictions);
    ]

let to_json r =
  Json.Obj
    [
      ("preset", Json.Str r.name);
      ("domains", Json.Int r.domains);
      ("lattice", Json.Int r.total);
      ("evaluated", Json.Int (Array.length r.points));
      ("cache", cache_json r.stats);
      ("failed",
       Json.List
         (List.map
            (fun (p, e) ->
              Json.Obj
                [
                  ("point", Space.point_json p);
                  ("error", Stage_error.to_json e);
                ])
            r.failed));
      ("points", Json.List (List.map point_metrics_json (Array.to_list r.points)));
    ]

let pareto r =
  Array.to_list r.points
  |> List.map (fun ((_, m) as pm) -> (pm, Frontier.of_metrics m))
  |> Frontier.pareto
  |> List.stable_sort (fun (_, a) (_, b) ->
         compare a.Frontier.delay_ps b.Frontier.delay_ps)

let pareto_table r =
  let rows =
    pareto r
    |> List.map (fun (((p : Space.point), (m : Eval.metrics)), o) ->
           axis_cells p
           @ [
               Table.fmt_float ~decimals:1 o.Frontier.delay_ps;
               Table.fmt_float ~decimals:3 o.Frontier.area;
               Table.fmt_float ~decimals:3 o.Frontier.power;
               Table.fmt_ratio m.Eval.composite;
             ])
  in
  Table.render
    ~header:(axis_header @ [ "delay_ps"; "area"; "power"; "gap" ])
    rows

let pareto_json r =
  Json.Obj
    [
      ("preset", Json.Str r.name);
      ("frontier",
       Json.List
         (pareto r
         |> List.map (fun ((p, m), _) -> point_metrics_json (p, m))));
    ]
