(* Gap_obs.Report — the analysis half of the observatory.

   Takes a parsed Trace.t and computes what the raw JSONL cannot show
   directly: per-(exp, path) aggregates with *self* time (total minus the
   time spent in direct children, the number that actually attributes
   wall-clock to code), top-K rankings by wall and by allocation, the
   critical path (the heaviest root-to-leaf chain of span totals),
   p50/p90/p99 estimates from fixed-bucket histogram counts, and the
   span-by-span diff of two runs' analyses. *)

type node = {
  n_exp : string;
  n_path : string;
  n_name : string;
  n_depth : int;
  n_calls : int;
  n_total_ns : float;
  n_self_ns : float;
  n_min_ns : float;
  n_max_ns : float;
  n_minor_words : float;
  n_major_words : float;
  n_promoted_words : float;
}

type t = {
  nodes : node list; (* first-seen order *)
  event_counts : (string * int) list;
  span_count : int;
  wall_ns : float; (* max span end minus min span start, 0 with no spans *)
  truncated : string option;
}

let parent_path path =
  match String.rindex_opt path '/' with
  | Some i -> Some (String.sub path 0 i)
  | None -> None

let analyze (tr : Trace.t) =
  let tbl : (string * string, node) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  let t_min = ref max_int and t_max = ref min_int and span_count = ref 0 in
  List.iter
    (fun (s : Trace.span) ->
      incr span_count;
      if s.Trace.s_start_ns < !t_min then t_min := s.Trace.s_start_ns;
      let fin = s.Trace.s_start_ns + s.Trace.s_dur_ns in
      if fin > !t_max then t_max := fin;
      let key = (s.Trace.s_exp, s.Trace.s_path) in
      let dur = float_of_int s.Trace.s_dur_ns in
      match Hashtbl.find_opt tbl key with
      | Some n ->
          Hashtbl.replace tbl key
            {
              n with
              n_calls = n.n_calls + 1;
              n_total_ns = n.n_total_ns +. dur;
              n_min_ns = Float.min n.n_min_ns dur;
              n_max_ns = Float.max n.n_max_ns dur;
              n_minor_words = n.n_minor_words +. s.Trace.s_minor_words;
              n_major_words = n.n_major_words +. s.Trace.s_major_words;
              n_promoted_words = n.n_promoted_words +. s.Trace.s_promoted_words;
            }
      | None ->
          order := key :: !order;
          Hashtbl.add tbl key
            {
              n_exp = s.Trace.s_exp;
              n_path = s.Trace.s_path;
              n_name = s.Trace.s_name;
              n_depth = s.Trace.s_depth;
              n_calls = 1;
              n_total_ns = dur;
              n_self_ns = 0.;
              n_min_ns = dur;
              n_max_ns = dur;
              n_minor_words = s.Trace.s_minor_words;
              n_major_words = s.Trace.s_major_words;
              n_promoted_words = s.Trace.s_promoted_words;
            })
    (Trace.spans tr);
  (* self time: a span's total minus its direct children's totals. The path
     encodes the full ancestry, so "children of (exp, P)" is exactly the set
     of aggregated paths one segment below P in the same experiment. *)
  let child_total : (string * string, float) Hashtbl.t = Hashtbl.create 64 in
  (* accumulate in first-open order, not Hashtbl.iter order: float addition
     is not associative, so a hash-order walk could flip low bits of a
     parent's child total between runs and break byte-identical renders *)
  List.iter
    (fun ((exp, path) as key) ->
      let n = Hashtbl.find tbl key in
      match parent_path path with
      | Some p ->
          let k = (exp, p) in
          Hashtbl.replace child_total k
            (n.n_total_ns
            +. match Hashtbl.find_opt child_total k with Some v -> v | None -> 0.)
      | None -> ())
    (List.rev !order);
  let nodes =
    List.rev_map
      (fun key ->
        let n = Hashtbl.find tbl key in
        let children =
          match Hashtbl.find_opt child_total key with Some v -> v | None -> 0.
        in
        { n with n_self_ns = Float.max 0. (n.n_total_ns -. children) })
      !order
  in
  let event_counts =
    let etbl = Hashtbl.create 16 and eorder = ref [] in
    List.iter
      (fun (e : Trace.event) ->
        match Hashtbl.find_opt etbl e.Trace.e_name with
        | Some c -> c := !c + 1
        | None ->
            Hashtbl.add etbl e.Trace.e_name (ref 1);
            eorder := e.Trace.e_name :: !eorder)
      (Trace.events tr);
    List.rev_map (fun name -> (name, !(Hashtbl.find etbl name))) !eorder
  in
  {
    nodes;
    event_counts;
    span_count = !span_count;
    wall_ns =
      (if !span_count = 0 then 0. else float_of_int (!t_max - !t_min));
    truncated = tr.Trace.truncated;
  }

let top_by_wall ?(k = 10) t =
  let sorted =
    List.stable_sort (fun a b -> Float.compare b.n_self_ns a.n_self_ns) t.nodes
  in
  List.filteri (fun i _ -> i < k) sorted

let top_by_alloc ?(k = 10) t =
  let words n = n.n_minor_words +. n.n_major_words in
  let sorted =
    List.stable_sort (fun a b -> Float.compare (words b) (words a)) t.nodes
  in
  List.filteri (fun i _ -> i < k) sorted

(* heaviest root, then repeatedly the heaviest direct child *)
let critical_path t =
  let roots = List.filter (fun n -> n.n_depth = 0) t.nodes in
  let heaviest = function
    | [] -> None
    | n :: rest ->
        Some
          (List.fold_left
             (fun best c -> if c.n_total_ns > best.n_total_ns then c else best)
             n rest)
  in
  match heaviest roots with
  | None -> []
  | Some root ->
      let rec descend cur acc =
        let children =
          List.filter
            (fun n ->
              n.n_exp = cur.n_exp
              && n.n_depth = cur.n_depth + 1
              &&
              match parent_path n.n_path with
              | Some p -> String.equal p cur.n_path
              | None -> false)
            t.nodes
        in
        match heaviest children with
        | Some c -> descend c (c :: acc)
        | None -> List.rev acc
      in
      descend root [ root ]

(* --- percentile estimation from fixed-bucket counts ---

   counts.(i) holds values v with bounds.(i-1) < v <= bounds.(i), counts at
   the end is overflow. The q-quantile is found by walking the cumulative
   counts and interpolating linearly inside the bucket that crosses it —
   exact at bucket edges, within one bucket width elsewhere. *)
let hist_percentile ~bounds ~counts q =
  let nb = Array.length bounds in
  if Array.length counts <> nb + 1 then
    invalid_arg "Report.hist_percentile: counts must be one longer than bounds";
  if not (q >= 0. && q <= 100.) then
    invalid_arg "Report.hist_percentile: q outside 0..100";
  let n = Array.fold_left ( + ) 0 counts in
  if n = 0 then nan
  else begin
    let target = q /. 100. *. float_of_int n in
    let cum = ref 0. and i = ref 0 in
    while
      !i < nb + 1 && !cum +. float_of_int counts.(!i) < target
    do
      cum := !cum +. float_of_int counts.(!i);
      incr i
    done;
    if !i >= nb then
      (* overflow bucket: no upper edge, report its lower edge *)
      if nb = 0 then nan else bounds.(nb - 1)
    else begin
      let lo = if !i = 0 then 0. else bounds.(!i - 1) in
      let hi = bounds.(!i) in
      let c = float_of_int counts.(!i) in
      if c <= 0. then hi
      else lo +. ((hi -. lo) *. ((target -. !cum) /. c))
    end
  end

let hist_summary (h : Obs.hist_stats) =
  let p q = hist_percentile ~bounds:h.Obs.bounds ~counts:h.Obs.counts q in
  (p 50., p 90., p 99.)

(* --- rendering --- *)

let pct part whole = if whole <= 0. then 0. else 100. *. part /. whole

let node_row wall n =
  [
    String.make (2 * n.n_depth) ' ' ^ n.n_name;
    n.n_exp;
    string_of_int n.n_calls;
    Obs.pp_ns n.n_total_ns;
    Obs.pp_ns n.n_self_ns;
    Printf.sprintf "%.1f%%" (pct n.n_self_ns wall);
    Obs.pp_ns (n.n_total_ns /. float_of_int (max 1 n.n_calls));
    Printf.sprintf "%.0f" n.n_minor_words;
    Printf.sprintf "%.0f" n.n_major_words;
  ]

let render ?(top = 10) t =
  let buf = Buffer.create 1024 in
  let section title rows header aligns =
    if rows <> [] then begin
      Buffer.add_string buf (Printf.sprintf "== %s ==\n" title);
      Buffer.add_string buf (Gap_util.Table.render ~aligns ~header rows)
    end
  in
  Buffer.add_string buf
    (Printf.sprintf "trace: %d spans, %d aggregated paths, wall %s\n"
       t.span_count (List.length t.nodes) (Obs.pp_ns t.wall_ns));
  (match t.truncated with
  | Some note ->
      Buffer.add_string buf
        (Printf.sprintf "note: truncated tail dropped (%s)\n" note)
  | None -> ());
  let span_header =
    [ "span"; "exp"; "calls"; "total"; "self"; "self%"; "avg"; "minor_w"; "major_w" ]
  in
  let span_aligns =
    Gap_util.Table.[ Left; Left; Right; Right; Right; Right; Right; Right; Right ]
  in
  section "span tree (first-open order)"
    (List.map (node_row t.wall_ns) t.nodes)
    span_header span_aligns;
  section
    (Printf.sprintf "top %d by self time" top)
    (List.map (node_row t.wall_ns) (top_by_wall ~k:top t))
    span_header span_aligns;
  section
    (Printf.sprintf "top %d by allocation" top)
    (List.map (node_row t.wall_ns) (top_by_alloc ~k:top t))
    span_header span_aligns;
  section "critical path (heaviest chain)"
    (List.map (node_row t.wall_ns) (critical_path t))
    span_header span_aligns;
  section "events"
    (List.map (fun (n, c) -> [ n; string_of_int c ]) t.event_counts)
    [ "event"; "count" ]
    Gap_util.Table.[ Left; Right ];
  Buffer.contents buf

let node_json wall n =
  Json.Obj
    [
      ("exp", Json.Str n.n_exp);
      ("path", Json.Str n.n_path);
      ("name", Json.Str n.n_name);
      ("depth", Json.Int n.n_depth);
      ("calls", Json.Int n.n_calls);
      ("total_ns", Json.Float n.n_total_ns);
      ("self_ns", Json.Float n.n_self_ns);
      ("self_pct", Json.Float (pct n.n_self_ns wall));
      ("min_ns", Json.Float n.n_min_ns);
      ("max_ns", Json.Float n.n_max_ns);
      ("minor_words", Json.Float n.n_minor_words);
      ("major_words", Json.Float n.n_major_words);
      ("promoted_words", Json.Float n.n_promoted_words);
    ]

let to_json ?(top = 10) t =
  Json.Obj
    [
      ("version", Json.Int 1);
      ("span_count", Json.Int t.span_count);
      ("wall_ns", Json.Float t.wall_ns);
      ( "truncated",
        match t.truncated with Some s -> Json.Str s | None -> Json.Null );
      ("nodes", Json.List (List.map (node_json t.wall_ns) t.nodes));
      ( "top_by_self_ns",
        Json.List (List.map (node_json t.wall_ns) (top_by_wall ~k:top t)) );
      ( "top_by_alloc",
        Json.List (List.map (node_json t.wall_ns) (top_by_alloc ~k:top t)) );
      ( "critical_path",
        Json.List (List.map (node_json t.wall_ns) (critical_path t)) );
      ( "events",
        Json.Obj (List.map (fun (n, c) -> (n, Json.Int c)) t.event_counts) );
    ]

(* --- comparing two runs: span totals matched by (exp, path) --- *)

type delta = { span : string; base_ns : float; cur_ns : float; pct : float }

type diff = {
  deltas : delta list;
  only_base : string list;
  only_cur : string list;
}

let span_label n = if n.n_exp = "" then n.n_path else n.n_exp ^ ":" ^ n.n_path

let diff ~baseline ~current =
  let totals t = List.map (fun n -> (span_label n, n.n_total_ns)) t.nodes in
  let base = totals baseline and cur = totals current in
  let one_sided a b =
    List.filter_map (fun (s, _) -> if List.mem_assoc s b then None else Some s) a
  in
  {
    deltas =
      List.filter_map
        (fun (span, base_ns) ->
          Option.map
            (fun cur_ns ->
              let pct =
                if base_ns > 0. then ((cur_ns /. base_ns) -. 1.) *. 100.
                else if cur_ns <= 0. then 0.
                else infinity
              in
              { span; base_ns; cur_ns; pct })
            (List.assoc_opt span cur))
        base;
    only_base = one_sided base cur;
    only_cur = one_sided cur base;
  }

let render_diff d =
  let buf = Buffer.create 1024 in
  let rows =
    List.map
      (fun dl ->
        [
          dl.span;
          Obs.pp_ns dl.base_ns;
          Obs.pp_ns dl.cur_ns;
          Printf.sprintf "%+.1f%%" dl.pct;
        ])
      (List.stable_sort (fun a b -> Float.compare b.pct a.pct) d.deltas)
  in
  if rows <> [] then
    Buffer.add_string buf
      (Gap_util.Table.render
         ~aligns:Gap_util.Table.[ Left; Right; Right; Right ]
         ~header:[ "span"; "base"; "current"; "delta" ]
         rows);
  let one_sided title = function
    | [] -> ()
    | spans ->
        Buffer.add_string buf
          (Printf.sprintf "only in %s: %s\n" title (String.concat ", " spans))
  in
  one_sided "baseline" d.only_base;
  one_sided "current" d.only_cur;
  Buffer.contents buf
