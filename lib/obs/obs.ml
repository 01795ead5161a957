(* Gap_obs.Obs — the flow-wide telemetry layer.

   One ambient sink (default: a no-op) receives hierarchical spans, named
   counters and gauges, fixed-bucket histograms, and structured events from
   every instrumented layer (synthesis flow, placer, STA, Monte Carlo).
   Instrumented code pays a single match on the ambient sink when telemetry
   is off, so it is safe to leave instrumentation in hot paths.

   A recording sink aggregates spans by (experiment, path) — path is the
   '/'-joined chain of enclosing span names — and can optionally stream one
   JSON line per closed span / emitted event to an out_channel (JSONL trace).
   Summaries render with Util.Table; the whole recording exports as a single
   metrics JSON document.

   Spans and the experiment tag are owned by the domain that runs the
   experiment; counters, gauges and histograms may be recorded from worker
   domains (the DSE pool's evaluations do) and are mutex-protected. *)

let now_ns : unit -> int64 = Monotonic_clock.now

(* --- histograms: counts.(i) holds values v with
   bounds.(i-1) < v <= bounds.(i); counts.(n) is the overflow bucket --- *)

type hist = {
  bounds : float array;
  counts : int array;
  mutable h_n : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
}

(* 1-2-5 per decade, 1e-3 .. 1e9: serviceable for durations in ns,
   wirelengths in um, and plain counts alike *)
let default_bounds =
  let b = ref [] in
  for d = -3 to 9 do
    let m = 10. ** float_of_int d in
    b := (5. *. m) :: (2. *. m) :: m :: !b
  done;
  Array.of_list (List.rev !b)

(* --- spans --- *)

type frame = {
  f_name : string;
  f_path : string;
  f_exp : string;
  f_depth : int;
  f_start : int64;
  f_minor0 : float;
  f_major0 : float;
  f_promoted0 : float;
  mutable f_attrs : (string * Json.t) list;
}

type span_stats = {
  exp : string;
  path : string;
  name : string;
  depth : int;
  calls : int;
  total_ns : float;
  min_ns : float;
  max_ns : float;
  minor_words : float;
  major_words : float;
  promoted_words : float;
}

type agg = {
  a_exp : string;
  a_path : string;
  a_name : string;
  a_depth : int;
  mutable a_calls : int;
  mutable a_total_ns : float;
  mutable a_min_ns : float;
  mutable a_max_ns : float;
  mutable a_minor : float;
  mutable a_major : float;
  mutable a_promoted : float;
}

type recorder = {
  lock : Mutex.t;
  stacks : (int * int, frame list ref) Hashtbl.t;
      (* span stacks are keyed by (domain id, thread id): worker domains
         (the DSE pool) and server threads (the serve daemon
         handles every client on its own thread within one domain) may open
         spans concurrently, and each execution context gets its own root.
         A plain DLS stack is not enough — systhreads within a domain share
         DLS, so two client threads would race on one stack ref. The table
         is consulted under [lock]; the ref itself is only ever touched by
         its owning thread. *)
  mutable cur_exp : string;
  aggs : (string, agg) Hashtbl.t;
  mutable agg_order : agg list; (* reverse first-open order *)
  counters : (string, int ref) Hashtbl.t;
  mutable counter_order : string list;
  gauges : (string, float ref) Hashtbl.t;
  mutable gauge_order : string list;
  hists : (string, hist) Hashtbl.t;
  mutable hist_order : string list;
  events : (string, int ref) Hashtbl.t;
  mutable event_order : string list;
  trace : out_channel option;
}

type sink = Noop | Memory of recorder

let null = Noop

let recorder ?trace () =
  Memory
    {
      lock = Mutex.create ();
      stacks = Hashtbl.create 16;
      cur_exp = "";
      aggs = Hashtbl.create 64;
      agg_order = [];
      counters = Hashtbl.create 32;
      counter_order = [];
      gauges = Hashtbl.create 32;
      gauge_order = [];
      hists = Hashtbl.create 16;
      hist_order = [];
      events = Hashtbl.create 16;
      event_order = [];
      trace;
    }

(* --- the ambient sink --- *)

let ambient = ref Noop
let set s = ambient := s
let get () = !ambient
let enabled () = match !ambient with Noop -> false | Memory _ -> true

let with_sink s f =
  let old = !ambient in
  ambient := s;
  Fun.protect ~finally:(fun () -> ambient := old) f

let locked r f =
  Mutex.lock r.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock r.lock) f

(* the calling context's span stack; created on first use *)
let stack_of r =
  let key = ((Domain.self () :> int), Thread.id (Thread.self ())) in
  locked r (fun () ->
      match Hashtbl.find_opt r.stacks key with
      | Some s -> s
      | None ->
          let s = ref [] in
          Hashtbl.add r.stacks key s;
          s)

let trace_line r j =
  match r.trace with
  | None -> ()
  | Some oc ->
      output_string oc (Json.to_string j);
      output_char oc '\n'

(* callers hold the lock *)
let agg_of r ~exp ~path ~name ~depth =
  let key = exp ^ "\000" ^ path in
  match Hashtbl.find_opt r.aggs key with
  | Some a -> a
  | None ->
      let a =
        {
          a_exp = exp;
          a_path = path;
          a_name = name;
          a_depth = depth;
          a_calls = 0;
          a_total_ns = 0.;
          a_min_ns = infinity;
          a_max_ns = 0.;
          a_minor = 0.;
          a_major = 0.;
          a_promoted = 0.;
        }
      in
      Hashtbl.add r.aggs key a;
      r.agg_order <- a :: r.agg_order;
      a

let span ?(attrs = []) name f =
  match !ambient with
  | Noop -> f ()
  | Memory r ->
      let stack = stack_of r in
      let path, depth =
        match !stack with
        | parent :: _ -> (parent.f_path ^ "/" ^ name, parent.f_depth + 1)
        | [] -> (name, 0)
      in
      let fr =
        (* [Gc.quick_stat] reads the major/promoted tallies without walking
           the heap, so opening a span stays O(1) *)
        let qs = Gc.quick_stat () in
        {
          f_name = name;
          f_path = path;
          f_exp = r.cur_exp;
          f_depth = depth;
          f_start = now_ns ();
          f_minor0 = Gc.minor_words ();
          f_major0 = qs.Gc.major_words;
          f_promoted0 = qs.Gc.promoted_words;
          f_attrs = attrs;
        }
      in
      (* register at open so the summary lists spans in first-open order *)
      locked r (fun () ->
          ignore (agg_of r ~exp:fr.f_exp ~path ~name ~depth));
      stack := fr :: !stack;
      let finish () =
        let dur = Int64.to_float (Int64.sub (now_ns ()) fr.f_start) in
        let minor = Gc.minor_words () -. fr.f_minor0 in
        let qs = Gc.quick_stat () in
        let major = qs.Gc.major_words -. fr.f_major0 in
        let promoted = qs.Gc.promoted_words -. fr.f_promoted0 in
        let rec drop = function
          | top :: rest -> if top == fr then rest else drop rest
          | [] -> []
        in
        stack := drop !stack;
        locked r (fun () ->
            let a = agg_of r ~exp:fr.f_exp ~path ~name ~depth in
            a.a_calls <- a.a_calls + 1;
            a.a_total_ns <- a.a_total_ns +. dur;
            if dur < a.a_min_ns then a.a_min_ns <- dur;
            if dur > a.a_max_ns then a.a_max_ns <- dur;
            a.a_minor <- a.a_minor +. minor;
            a.a_major <- a.a_major +. major;
            a.a_promoted <- a.a_promoted +. promoted;
            trace_line r
              (Json.Obj
                 ([
                    ("type", Json.Str "span");
                    ("exp", Json.Str fr.f_exp);
                    ("path", Json.Str fr.f_path);
                    ("name", Json.Str fr.f_name);
                    ("depth", Json.Int fr.f_depth);
                    ("start_ns", Json.Int (Int64.to_int fr.f_start));
                    ("dur_ns", Json.Int (int_of_float dur));
                    ("minor_words", Json.Float minor);
                    ("major_words", Json.Float major);
                    ("promoted_words", Json.Float promoted);
                  ]
                 @
                 if fr.f_attrs = [] then []
                 else [ ("attrs", Json.Obj fr.f_attrs) ])))
      in
      (match f () with
      | v ->
          finish ();
          v
      | exception e ->
          finish ();
          raise e)

(* attach key/value pairs to the innermost open span *)
let annotate kvs =
  match !ambient with
  | Noop -> ()
  | Memory r -> (
      match !(stack_of r) with
      | fr :: _ -> fr.f_attrs <- fr.f_attrs @ kvs
      | [] -> ())

(* scope every span/event recorded by [f] under experiment [id] *)
let with_exp id f =
  match !ambient with
  | Noop -> f ()
  | Memory r ->
      let old = r.cur_exp in
      r.cur_exp <- id;
      Fun.protect ~finally:(fun () -> r.cur_exp <- old) f

let incr ?(by = 1) name =
  match !ambient with
  | Noop -> ()
  | Memory r ->
      locked r (fun () ->
          match Hashtbl.find_opt r.counters name with
          | Some c -> c := !c + by
          | None ->
              Hashtbl.add r.counters name (ref by);
              r.counter_order <- name :: r.counter_order)

let gauge name v =
  match !ambient with
  | Noop -> ()
  | Memory r ->
      locked r (fun () ->
          match Hashtbl.find_opt r.gauges name with
          | Some g -> g := v
          | None ->
              Hashtbl.add r.gauges name (ref v);
              r.gauge_order <- name :: r.gauge_order)

(* must run under [locked r] *)
let hist_find_or_create r bounds name =
  match Hashtbl.find_opt r.hists name with
  | Some h -> h
  | None ->
      let bounds = match bounds with Some b -> b | None -> default_bounds in
      let h =
        {
          bounds;
          counts = Array.make (Array.length bounds + 1) 0;
          h_n = 0;
          h_sum = 0.;
          h_min = infinity;
          h_max = neg_infinity;
        }
      in
      Hashtbl.add r.hists name h;
      r.hist_order <- name :: r.hist_order;
      h

(* must run under [locked r] *)
let hist_insert h v =
  let n = Array.length h.bounds in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if v <= h.bounds.(mid) then hi := mid else lo := mid + 1
  done;
  h.counts.(!lo) <- h.counts.(!lo) + 1;
  h.h_n <- h.h_n + 1;
  h.h_sum <- h.h_sum +. v;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v

let observe ?bounds name v =
  match !ambient with
  | Noop -> ()
  | Memory r ->
      locked r (fun () -> hist_insert (hist_find_or_create r bounds name) v)

let observe_batch ?bounds name vs =
  if Array.length vs > 0 then
    match !ambient with
    | Noop -> ()
    | Memory r ->
        locked r (fun () ->
            let h = hist_find_or_create r bounds name in
            Array.iter (hist_insert h) vs)

let event name attrs =
  match !ambient with
  | Noop -> ()
  | Memory r ->
      let t = now_ns () in
      locked r (fun () ->
          (match Hashtbl.find_opt r.events name with
          | Some c -> c := !c + 1
          | None ->
              Hashtbl.add r.events name (ref 1);
              r.event_order <- name :: r.event_order);
          trace_line r
            (Json.Obj
               ([
                  ("type", Json.Str "event");
                  ("exp", Json.Str r.cur_exp);
                  ("name", Json.Str name);
                  ("t_ns", Json.Int (Int64.to_int t));
                ]
               @ if attrs = [] then [] else [ ("attrs", Json.Obj attrs) ])))

(* --- reading a recording back --- *)

let spans = function
  | Noop -> []
  | Memory r ->
      List.rev_map
        (fun a ->
          {
            exp = a.a_exp;
            path = a.a_path;
            name = a.a_name;
            depth = a.a_depth;
            calls = a.a_calls;
            total_ns = a.a_total_ns;
            min_ns = (if a.a_calls = 0 then 0. else a.a_min_ns);
            max_ns = a.a_max_ns;
            minor_words = a.a_minor;
            major_words = a.a_major;
            promoted_words = a.a_promoted;
          })
        r.agg_order

let counters = function
  | Noop -> []
  | Memory r ->
      List.rev_map
        (fun name -> (name, !(Hashtbl.find r.counters name)))
        r.counter_order

let counter_value sink name =
  match List.assoc_opt name (counters sink) with Some v -> v | None -> 0

let gauges = function
  | Noop -> []
  | Memory r ->
      List.rev_map
        (fun name -> (name, !(Hashtbl.find r.gauges name)))
        r.gauge_order

let gauge_value sink name = List.assoc_opt name (gauges sink)

let events = function
  | Noop -> []
  | Memory r ->
      List.rev_map
        (fun name -> (name, !(Hashtbl.find r.events name)))
        r.event_order

type hist_stats = {
  bounds : float array;
  counts : int array;
  n : int;
  sum : float;
  min_v : float;
  max_v : float;
}

let histograms = function
  | Noop -> []
  | Memory r ->
      List.rev_map
        (fun name ->
          let h = Hashtbl.find r.hists name in
          ( name,
            {
              bounds = h.bounds;
              counts = h.counts;
              n = h.h_n;
              sum = h.h_sum;
              min_v = h.h_min;
              max_v = h.h_max;
            } ))
        r.hist_order

let histogram_stats sink name = List.assoc_opt name (histograms sink)

(* --- rendering --- *)

let pp_ns ns =
  if Float.is_nan ns then "nan"
  else if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let pp_words w =
  if Float.abs w >= 1e6 then Printf.sprintf "%.1f Mw" (w /. 1e6)
  else if Float.abs w >= 1e3 then Printf.sprintf "%.1f kw" (w /. 1e3)
  else Printf.sprintf "%.0f w" w

let span_rows sink =
  List.map
    (fun s ->
      [
        String.make (2 * s.depth) ' ' ^ s.name;
        s.exp;
        string_of_int s.calls;
        pp_ns s.total_ns;
        pp_ns (if s.calls = 0 then 0. else s.total_ns /. float_of_int s.calls);
        pp_ns s.min_ns;
        pp_ns s.max_ns;
        pp_words s.minor_words;
        pp_words s.major_words;
      ])
    (spans sink)

let summary sink =
  match sink with
  | Noop -> ""
  | Memory _ ->
      let buf = Buffer.create 1024 in
      let section title table =
        if table <> "" then begin
          Buffer.add_string buf (Printf.sprintf "== %s ==\n" title);
          Buffer.add_string buf table
        end
      in
      let tbl header aligns rows =
        if rows = [] then "" else Gap_util.Table.render ~aligns ~header rows
      in
      section "spans"
        (tbl
           [ "span"; "exp"; "calls"; "total"; "avg"; "min"; "max"; "alloc"; "major" ]
           Gap_util.Table.[ Left; Left; Right; Right; Right; Right; Right; Right; Right ]
           (span_rows sink));
      section "counters"
        (tbl [ "counter"; "value" ]
           Gap_util.Table.[ Left; Right ]
           (List.map (fun (n, v) -> [ n; string_of_int v ]) (counters sink)));
      section "gauges"
        (tbl [ "gauge"; "value" ]
           Gap_util.Table.[ Left; Right ]
           (List.map (fun (n, v) -> [ n; Printf.sprintf "%.6g" v ]) (gauges sink)));
      section "histograms"
        (tbl
           [ "histogram"; "n"; "mean"; "min"; "max" ]
           Gap_util.Table.[ Left; Right; Right; Right; Right ]
           (List.map
              (fun (name, (h : hist_stats)) ->
                let f v = if h.n = 0 then "-" else Printf.sprintf "%.4g" v in
                [
                  name;
                  string_of_int h.n;
                  f (if h.n = 0 then 0. else h.sum /. float_of_int h.n);
                  f h.min_v;
                  f h.max_v;
                ])
              (histograms sink)));
      section "events"
        (tbl [ "event"; "count" ]
           Gap_util.Table.[ Left; Right ]
           (List.map (fun (n, v) -> [ n; string_of_int v ]) (events sink)));
      Buffer.contents buf

(* span aggregates as CSV (raw ns, spreadsheet-friendly) *)
let spans_csv sink =
  Gap_util.Table.to_csv
    ~header:
      [ "exp"; "path"; "depth"; "calls"; "total_ns"; "avg_ns"; "min_ns"; "max_ns";
        "minor_words"; "major_words"; "promoted_words" ]
    (List.map
       (fun s ->
         [
           s.exp;
           s.path;
           string_of_int s.depth;
           string_of_int s.calls;
           Printf.sprintf "%.0f" s.total_ns;
           Printf.sprintf "%.1f"
             (if s.calls = 0 then 0. else s.total_ns /. float_of_int s.calls);
           Printf.sprintf "%.0f" s.min_ns;
           Printf.sprintf "%.0f" s.max_ns;
           Printf.sprintf "%.0f" s.minor_words;
           Printf.sprintf "%.0f" s.major_words;
           Printf.sprintf "%.0f" s.promoted_words;
         ])
       (spans sink))

let metrics_json sink =
  let span_json s =
    Json.Obj
      [
        ("exp", Json.Str s.exp);
        ("path", Json.Str s.path);
        ("name", Json.Str s.name);
        ("depth", Json.Int s.depth);
        ("calls", Json.Int s.calls);
        ("total_ns", Json.Float s.total_ns);
        ("avg_ns",
         Json.Float (if s.calls = 0 then 0. else s.total_ns /. float_of_int s.calls));
        ("min_ns", Json.Float s.min_ns);
        ("max_ns", Json.Float s.max_ns);
        ("minor_words", Json.Float s.minor_words);
        ("major_words", Json.Float s.major_words);
        ("promoted_words", Json.Float s.promoted_words);
      ]
  in
  let hist_json (name, (h : hist_stats)) =
    let bucket i c =
      Json.Obj
        [
          ("le",
           if i < Array.length h.bounds then Json.Float h.bounds.(i)
           else Json.Str "inf");
          ("count", Json.Int c);
        ]
    in
    let buckets =
      Array.to_list h.counts
      |> List.mapi (fun i c -> (i, c))
      |> List.filter (fun (_, c) -> c > 0)
      |> List.map (fun (i, c) -> bucket i c)
    in
    Json.Obj
      [
        ("name", Json.Str name);
        ("n", Json.Int h.n);
        ("sum", Json.Float h.sum);
        ("mean", if h.n = 0 then Json.Null else Json.Float (h.sum /. float_of_int h.n));
        ("min", if h.n = 0 then Json.Null else Json.Float h.min_v);
        ("max", if h.n = 0 then Json.Null else Json.Float h.max_v);
        ("buckets", Json.List buckets);
      ]
  in
  Json.Obj
    [
      ("version", Json.Int 1);
      ("spans", Json.List (List.map span_json (spans sink)));
      ("counters",
       Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) (counters sink)));
      ("gauges",
       Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) (gauges sink)));
      ("events",
       Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) (events sink)));
      ("histograms", Json.List (List.map hist_json (histograms sink)));
    ]

let write_metrics_json sink path =
  Gap_util.Atomic_io.write_file path (fun oc ->
      output_string oc (Json.to_string ~pretty:true (metrics_json sink));
      output_char oc '\n')
