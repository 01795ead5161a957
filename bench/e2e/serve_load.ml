(* The serve workloads: a [Gap_serve.Server] daemon with a segment store,
   forked as a child process, driven by two closed-loop connections from
   two domains of this process (systhreads of one domain would share its
   runtime lock and queue behind each other). The loop is closed because
   the daemon's real clients are sweeps that each wait for their
   answer.

   - [Hits]: set-up warms a hot set smaller than the LRU capacity, then
     every request is a cache hit — the daemon's read path, no evaluation.
   - [Fresh]: a cold store and only never-seen points, a tenth of them
     running the binning Monte Carlo — the write path: pool evaluation,
     per-batch store append, LRU eviction and compaction. *)

module Space = Gap_dse.Space
module Eval = Gap_dse.Eval
module Key = Gap_dse.Key
module Cache = Gap_dse.Cache
module Protocol = Gap_serve.Protocol
module Server = Gap_serve.Server
module Client = Gap_serve.Client
module Json = Gap_obs.Json
module Obs = Gap_obs.Obs
module Rng = Gap_util.Rng

type kind = Hits | Fresh

let connections = 2
let mc_dies = 20_000
let hot_points = function Common.Full -> 512 | Common.Smoke -> 64
let hits_per_conn = function Common.Full -> 20_000 | Common.Smoke -> 200
let fresh_per_conn = function Common.Full -> 15_000 | Common.Smoke -> 100

(* The points the daemon's real clients ask for: every point of every named
   sweep space in [Space.presets], in enumeration order. *)
let grid =
  lazy (Array.of_list (List.concat_map (fun (_, _, s) -> Space.enumerate s) Space.presets))

(* Point [i] of a seeded stream: a grid point drawn uniformly, a tenth of
   them switched to the binning Monte Carlo at [mc_dies] dies and the rest
   analytic. The sigma scale is offset per index, so every point has its
   own cache key; the offset only changes the result of the Monte Carlo
   tenth. *)
let point rng i =
  let g = Lazy.force grid in
  let p = g.(Rng.int rng (Array.length g)) in
  let binning = Rng.int rng 10 = 0 in
  {
    p with
    Space.binning;
    mc_dies = (if binning then mc_dies else p.Space.mc_dies);
    sigma_scale = p.Space.sigma_scale +. (1e-5 *. float_of_int i);
  }

(* The request stream: distinct points, and per connection the sequence of
   point indices it sends. *)
type traffic = { points : Space.point array; orders : int array array }

let traffic kind (ctx : Common.ctx) =
  let rng = Rng.create ~seed:(Int64.of_int ctx.Common.seed) () in
  match kind with
  | Hits ->
      let n = hot_points ctx.Common.scale in
      let points = Array.init n (point rng) in
      let per = hits_per_conn ctx.Common.scale in
      { points; orders = Array.init connections (fun _ -> Array.init per (fun _ -> Rng.int rng n)) }
  | Fresh ->
      let per = fresh_per_conn ctx.Common.scale in
      let points = Array.init (connections * per) (point rng) in
      { points; orders = Array.init connections (fun c -> Array.init per (fun k -> (k * connections) + c)) }

(* Requests carry the point index as their id, so the expected response
   line of a point is fixed. *)
let request_line i p = Json.to_string (Protocol.request_to_json { Protocol.id = i + 1; op = Protocol.Eval p })

let response_line i m =
  Protocol.render_response { Protocol.r_id = i + 1; body = Ok (Eval.to_json m) }

(* --- the daemon child --- *)

(* The daemon writes one byte to [ready] once it listens, so the parent
   connects exactly then: no connect-retry backoff lands in set-up time. *)
let daemon ~dir ~store ~sock ~traced ~ready =
  (* a daemon must not outlive the process driving it, however that ends *)
  let parent = Unix.getppid () in
  ignore
    (Thread.create
       (fun () ->
         while Unix.getppid () = parent do
           Thread.delay 0.5
         done;
         Unix._exit 1)
       ());
  let sink = Obs.recorder () in
  if traced then Obs.set sink;
  let code =
    try
      let cfg = { (Server.default_config (Protocol.Unix_sock sock)) with Server.store = Some store } in
      let t = Server.create cfg in
      Server.start t;
      ignore (Unix.write_substring ready "!" 0 1);
      Unix.close ready;
      Server.wait t;
      if traced then begin
        let r = Common.empty_report () in
        Common.add_trace_layers r sink;
        Gap_util.Atomic_io.write_string (Filename.concat dir "daemon.json")
          (Json.to_string (Common.report_to_json r))
      end;
      0
    with e ->
      prerr_endline ("e2e daemon: " ^ Printexc.to_string e);
      1
  in
  Unix._exit code

let int_member name j = match Json.member name j with Some (Json.Int i) -> i | _ -> 0

(* --- replaying the layers in-process on the workload's own requests --- *)

let mean_us total_s n = if n = 0 then 0. else total_s *. 1e6 /. float_of_int n

(* evaluations replayed per kind of point: enough to average, few enough
   that the Monte Carlo ones stay cheap *)
let eval_samples = 200

let replay (r : Common.report) ~dir ~kind tr (metrics : Eval.metrics array) =
  List.iter
    (fun (name, binning) ->
      let pts = List.filter (fun p -> p.Space.binning = binning) (Array.to_list tr.points) in
      let pts = List.filteri (fun i _ -> i < eval_samples) pts in
      let total = ref 0. in
      List.iter (fun p -> ignore (Common.timed_into total (fun () -> Eval.point p))) pts;
      Common.add_layer r name (mean_us !total (List.length pts)))
    [ ("dse.eval.us", false); ("dse.eval_mc.us", true) ];
  let seq = Array.concat (Array.to_list tr.orders) in
  let lines = Array.map (fun i -> request_line i tr.points.(i)) seq in
  let proto_s = ref 0. and key_s = ref 0. and find_s = ref 0. in
  Array.iteri
    (fun k i ->
      Common.timed_into proto_s (fun () ->
          ignore (Protocol.parse_request lines.(k));
          ignore (response_line i metrics.(i))))
    seq;
  Array.iter (fun i -> ignore (Common.timed_into key_s (fun () -> Key.of_point tr.points.(i)))) seq;
  let cache = Cache.create () in
  (match kind with
  | Hits -> Array.iteri (fun i p -> Cache.add cache p metrics.(i)) tr.points
  | Fresh -> ());
  Array.iter
    (fun i ->
      let p = tr.points.(i) in
      match Common.timed_into find_s (fun () -> Cache.find cache p) with
      | Some _ -> ()
      | None -> Cache.add cache p metrics.(i))
    seq;
  let n = Array.length seq in
  Common.add_layer r "serve.protocol.us" (mean_us !proto_s n);
  Common.add_layer r "dse.key.us" (mean_us !key_s n);
  Common.add_layer r "dse.cache_find.us" (mean_us !find_s n);
  (* the store side: one append per pair of fresh results, as two
     closed-loop connections batch them, then a forced compaction *)
  let store = Cache.create ~store:(Filename.concat dir "replay.store") () in
  let flush_s = ref 0. and flushes = ref 0 in
  Array.iteri
    (fun i p ->
      Cache.add store p metrics.(i);
      if i mod connections = connections - 1 then begin
        Common.timed_into flush_s (fun () -> Cache.flush store);
        incr flushes
      end)
    tr.points;
  let (), compact_s = Common.timed (fun () -> Cache.compact store) in
  Common.add_layer r "dse.flush.ms" (mean_us !flush_s !flushes /. 1e3);
  Common.add_layer r "dse.compact.ms" (compact_s *. 1e3)

(* --- the load child --- *)

let run kind (ctx : Common.ctx) =
  let r = Common.empty_report () in
  let dir = Common.private_dir () in
  let store = Filename.concat dir "store" and sock = Filename.concat dir "d.sock" in
  let tr = traffic kind ctx in
  let lines = Array.mapi request_line tr.points in
  flush stdout;
  flush stderr;
  let ready_r, ready_w = Unix.pipe ~cloexec:true () in
  (* fork before this process starts any thread or domain *)
  let pid =
    match Unix.fork () with
    | 0 ->
        Unix.close ready_r;
        daemon ~dir ~store ~sock ~traced:(ctx.Common.mode = Common.Traced) ~ready:ready_w
    | pid ->
        Unix.close ready_w;
        pid
  in
  let clients = ref [||] and alive = ref true in
  (* graceful when the daemon still answers, SIGKILL otherwise; either way
     the child is waited for before this process goes on *)
  let stop_daemon () =
    if !alive then begin
      alive := false;
      (match !clients with
      | [||] -> ( try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
      | cls ->
          Client.shutdown cls.(0);
          Array.iter Client.close cls);
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      (try stop_daemon ()
       with _ -> (
         (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
         try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()));
      Common.rm_rf dir)
    (fun () ->
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      let listening =
        Fun.protect
          ~finally:(fun () -> Unix.close ready_r)
          (fun () -> Unix.read ready_r (Bytes.create 1) 0 1 = 1)
      in
      if not listening then failwith "the daemon exited before it listened";
      clients := Array.init connections (fun _ -> Client.connect (Protocol.Unix_sock sock));
      let clients = !clients in
      (match kind with
      | Hits ->
          Array.iteri
            (fun i line ->
              match Client.raw_roundtrip clients.(i mod connections) line with
              | Ok _ -> ()
              | Error e -> failwith ("warming the hot set: " ^ e))
            lines
      | Fresh -> ());
      Common.setup_done ctx r;
      if ctx.Common.mode <> Common.Setup then begin
        (* the timed phase: each connection's domain sends its sequence,
           one request outstanding at a time *)
        let n = Array.length tr.points in
        let per = Array.length tr.orders.(0) in
        let lat = Array.make_matrix connections per 0. in
        (* per connection and point: the first response, and how many
           requests for the point it stands for *)
        let seen = Array.init connections (fun _ -> Array.make n None) in
        let sent = Array.init connections (fun _ -> Array.make n 0) in
        let mismatched = Array.make connections 0 and errors = Array.make connections [] in
        let worker c () =
          let cl = clients.(c) and order = tr.orders.(c) in
          for k = 0 to per - 1 do
            let i = order.(k) in
            let t0 = Common.now_ns () in
            let resp = Client.raw_roundtrip cl lines.(i) in
            lat.(c).(k) <- Common.secs_since t0 *. 1e3;
            match (resp, seen.(c).(i)) with
            | Ok s, None ->
                seen.(c).(i) <- Some s;
                sent.(c).(i) <- 1
            | Ok s, Some first ->
                if String.equal s first then sent.(c).(i) <- sent.(c).(i) + 1
                else mismatched.(c) <- mismatched.(c) + 1
            | Error e, _ -> errors.(c) <- e :: errors.(c)
          done
        in
        let t0 = Common.now_ns () in
        Array.iter Domain.join (Array.init connections (fun c -> Domain.spawn (worker c)));
        r.Common.wall_s <- Common.secs_since t0;
        r.Common.latencies_ms <- Array.concat (Array.to_list lat);
        let stats =
          match Client.request clients.(0) Protocol.Stats with
          | Ok j -> j
          | Error e -> failwith ("stats: " ^ Protocol.err_to_string e)
        in
        r.Common.peak_mb <- Common.peak_rss_mb pid;
        stop_daemon ();
        (* correctness: every response line equals the rendering of an
           in-process evaluation of its point, bit for bit; the reference
           evaluations run on both cores once the load is over *)
        Eval.warmup ();
        let metrics =
          Array.map
            (function
              | Ok m -> m
              | Error e -> failwith ("reference evaluation: " ^ Gap_resilience.Stage_error.to_string e))
            (Gap_dse.Pool.map ~domains:2 ~stage:"e2e.reference" Eval.point tr.points)
        in
        Array.iteri
          (fun c per_conn ->
            List.iter (fun e -> Common.fail r ("transport: " ^ e)) errors.(c);
            for _ = 1 to mismatched.(c) do
              Common.fail r "a repeated request got a different response"
            done;
            Array.iteri
              (fun i -> function
                | Some s when not (String.equal s (response_line i metrics.(i))) ->
                    for _ = 1 to sent.(c).(i) do
                      Common.fail r
                        (Printf.sprintf "point %d: response differs from Eval.point" i)
                    done
                | _ -> ())
              per_conn)
          seen;
        match ctx.Common.mode with
        | Common.Attribute ->
            replay r ~dir ~kind tr metrics;
            List.iter
              (fun (name, key) -> Common.add_layer r name (float_of_int (int_member key stats)))
              [
                ("serve.evals", "evals");
                ("serve.cache_hits", "cache_hits");
                ("serve.coalesced", "coalesced");
                ("serve.batches", "batches");
                ("serve.flush_failures", "flush_failures");
              ];
            Common.add_layer r "serve.batch_mean"
              (float_of_int (int_member "evals" stats)
              /. float_of_int (max 1 (int_member "batches" stats)));
            let segments, generation =
              match Cache.inspect_store store with
              | Cache.Store si -> (si.Cache.si_segments, si.Cache.si_generation)
              | Cache.Missing _ | Cache.Foreign _ | Cache.Corrupt _ -> (0, 0)
            in
            Common.add_layer r "dse.store.segments" (float_of_int segments);
            Common.add_layer r "dse.store.generation" (float_of_int generation)
        | Common.Traced -> (
            match Json.of_string (Common.read_file (Filename.concat dir "daemon.json")) with
            | Ok j -> (
                match Json.member "layers" j with
                | Some (Json.Obj kvs) ->
                    List.iter
                      (function
                        | k, Json.Float v -> Common.add_layer r k v
                        | k, Json.Int v -> Common.add_layer r k (float_of_int v)
                        | _ -> ())
                      kvs
                | _ -> ())
            | Error e -> failwith ("daemon metrics: " ^ e))
        | Common.Setup | Common.Run -> ()
      end);
  r
