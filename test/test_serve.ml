(* Tests for Gap_serve: wire protocol round-trips, the evaluation daemon
   (byte-identical responses, coalescing under barrier-released waves,
   poisoned requests, store reuse across restarts, graceful shutdown), and
   regressions for the concurrency bugs the daemon flushed out — corrupted
   Gap_obs span stacks under systhreads, hash-order cache listings. *)

module Protocol = Gap_serve.Protocol
module Server = Gap_serve.Server
module Client = Gap_serve.Client
module Space = Gap_dse.Space
module Eval = Gap_dse.Eval
module Cache = Gap_dse.Cache
module Obs = Gap_obs.Obs
module Json = Gap_obs.Json
module Stage_error = Gap_resilience.Stage_error

let fresh_sock =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gap_serve_test_%d_%d.sock" (Unix.getpid ()) !n)

let with_server ?store ?(domains = 1) ?(queue_bound = 64) f =
  let path = fresh_sock () in
  let addr = Protocol.Unix_sock path in
  let cfg =
    { (Server.default_config addr) with Server.domains; store; queue_bound }
  in
  let t = Server.create cfg in
  Server.start t;
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f t addr)

let with_client addr f =
  match Client.connect_retry addr with
  | Error e -> Alcotest.fail ("connect: " ^ Client.connect_error_to_string e)
  | Ok cl -> Fun.protect ~finally:(fun () -> Client.close cl) (fun () -> f cl)

(* distinct fresh points per call site so tests never share cache keys *)
let fresh_point =
  let n = ref 0 in
  fun () ->
    incr n;
    {
      Space.baseline with
      Space.sigma_scale = 3.0 +. (0.0001 *. float_of_int !n);
      mc_dies = 64;
    }

(* --- protocol --- *)

let test_protocol_roundtrip () =
  let reqs =
    [
      { Protocol.id = 1; op = Protocol.Eval Space.baseline };
      { Protocol.id = 2; op = Protocol.Sweep "smoke" };
      { Protocol.id = 3; op = Protocol.Pareto "factor-axes" };
      { Protocol.id = 4; op = Protocol.Stats };
      { Protocol.id = 5; op = Protocol.Ping };
      { Protocol.id = 6; op = Protocol.Shutdown };
    ]
  in
  List.iter
    (fun r ->
      match Protocol.parse_request (Json.to_string (Protocol.request_to_json r)) with
      | Ok r' ->
          Alcotest.(check int) "id survives" r.Protocol.id r'.Protocol.id;
          Alcotest.(check string)
            "op survives"
            (Protocol.op_name r.Protocol.op)
            (Protocol.op_name r'.Protocol.op)
      | Error e -> Alcotest.fail e)
    reqs;
  (match Protocol.parse_request "{\"id\":1}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "request without op parsed");
  (match Protocol.parse_request "not json at all" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage parsed");
  let resp = { Protocol.r_id = 7; body = Ok (Json.Str "pong") } in
  (match Protocol.response_of_json (Protocol.response_to_json resp) with
  | Ok r -> Alcotest.(check int) "response id" 7 r.Protocol.r_id
  | Error e -> Alcotest.fail e);
  let err = { Protocol.r_id = 8; body = Error (Protocol.Overloaded "full") } in
  match Protocol.response_of_json (Protocol.response_to_json err) with
  | Ok { Protocol.body = Error (Protocol.Overloaded m); _ } ->
      Alcotest.(check string) "overloaded detail" "full" m
  | _ -> Alcotest.fail "overloaded did not round-trip"

let test_addr_parsing () =
  (match Protocol.addr_of_string "/tmp/x.sock" with
  | Ok (Protocol.Unix_sock p) -> Alcotest.(check string) "unix path" "/tmp/x.sock" p
  | _ -> Alcotest.fail "unix addr");
  (match Protocol.addr_of_string "localhost:9000" with
  | Ok (Protocol.Tcp (h, p)) ->
      Alcotest.(check string) "host" "localhost" h;
      Alcotest.(check int) "port" 9000 p
  | _ -> Alcotest.fail "tcp addr");
  (match Protocol.addr_of_string "9000" with
  | Ok (Protocol.Tcp (h, p)) ->
      Alcotest.(check string) "loopback default" "127.0.0.1" h;
      Alcotest.(check int) "bare port" 9000 p
  | _ -> Alcotest.fail "bare port");
  match Protocol.addr_of_string "nonsense" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "nonsense parsed as addr"

(* --- the daemon --- *)

let test_serve_eval_byte_identical () =
  with_server (fun t addr ->
      with_client addr (fun cl ->
          Alcotest.(check bool) "ping" true (Client.ping cl);
          let p = fresh_point () in
          let expect = Json.to_string (Eval.to_json (Eval.point p)) in
          (match Client.eval cl p with
          | Ok j ->
              Alcotest.(check string)
                "server response = CLI's Eval.to_json, byte for byte" expect
                (Json.to_string j)
          | Error e -> Alcotest.fail (Protocol.err_to_string e));
          (match Client.eval cl p with
          | Ok j ->
              Alcotest.(check string) "second request identical" expect (Json.to_string j)
          | Error e -> Alcotest.fail (Protocol.err_to_string e));
          let s = Server.stats t in
          Alcotest.(check int) "one evaluation" 1 s.Server.evals;
          Alcotest.(check int) "second was a cache hit" 1 s.Server.cache_hits))

(* Wave points run the binning Monte Carlo at 1M dies: the evaluation
   must outlast a systhread preemption tick (~50 ms). A shorter one holds
   the runtime lock until its result lands, so the followers degrade from
   in-flight coalesces to plain cache hits and the coalescing path goes
   unexercised. *)
let wave_point =
  let n = ref 0 in
  fun () ->
    incr n;
    {
      Space.baseline with
      Space.sigma_scale = 1.0 +. (0.0001 *. float_of_int !n);
      binning = true;
      mc_dies = 1_000_000;
    }

(* cyclic barrier: the last of [parties] arrivals releases the rest *)
let barrier parties =
  let m = Mutex.create () and c = Condition.create () in
  let arrived = ref 0 and gen = ref 0 in
  fun () ->
    Mutex.lock m;
    let g = !gen in
    incr arrived;
    if !arrived = parties then begin
      arrived := 0;
      incr gen;
      Condition.broadcast c
    end
    else
      while !gen = g do
        Condition.wait c m
      done;
    Mutex.unlock m

(* [clients] connections. In each of [waves] rounds a barrier releases
   every client onto the same fresh wave point; then each client asks for
   [unique] fresh points no other client asks for. A wave costs one
   evaluation however many clients ask, and its followers either attach to
   the in-flight slot or, arriving after it lands, hit the cache. *)
let test_concurrent_coalesce ~clients ~waves ~unique () =
  let sink = Obs.recorder () in
  Obs.with_sink sink (fun () ->
      with_server (fun t addr ->
          let wave_pts = Array.init waves (fun _ -> wave_point ()) in
          let unique_pts =
            Array.init clients (fun _ -> Array.init unique (fun _ -> fresh_point ()))
          in
          let await = barrier clients in
          let answers = Array.make_matrix clients (waves + unique) "" in
          let body c () =
            match Client.connect_retry addr with
            | Error e ->
                answers.(c).(0) <- "ERR " ^ Client.connect_error_to_string e;
                (* keep the barrier whole, or every other client hangs *)
                Array.iter (fun _ -> await ()) wave_pts
            | Ok cl ->
                Fun.protect ~finally:(fun () -> Client.close cl) (fun () ->
                    let ask i p =
                      answers.(c).(i) <-
                        (match Client.eval cl p with
                        | Ok j -> Json.to_string j
                        | Error e -> "ERR " ^ Protocol.err_to_string e)
                    in
                    Array.iteri (fun w p -> await (); ask w p) wave_pts;
                    Array.iteri (fun u p -> ask (waves + u) p) unique_pts.(c))
          in
          let ths = Array.init clients (fun c -> Thread.create (body c) ()) in
          Array.iter Thread.join ths;
          let expect p = Json.to_string (Eval.to_json (Eval.point p)) in
          Array.iteri
            (fun w p ->
              let e = expect p in
              Array.iteri
                (fun c a ->
                  Alcotest.(check string)
                    (Printf.sprintf "wave %d, client %d byte-identical" w c)
                    e a.(w))
                answers)
            wave_pts;
          Array.iteri
            (fun c pts ->
              Array.iteri
                (fun u p ->
                  Alcotest.(check string)
                    (Printf.sprintf "client %d, unique point %d byte-identical" c u)
                    (expect p)
                    answers.(c).(waves + u))
                pts)
            unique_pts;
          let s = Server.stats t in
          let evals = waves + (clients * unique) in
          Alcotest.(check int)
            "one evaluation per wave plus one per unique point" evals
            s.Server.evals;
          Alcotest.(check int) "the worker pool saw exactly those jobs" evals
            (Obs.counter_value sink "dse.pool.jobs");
          Alcotest.(check int)
            "every wave follower coalesced or hit the cache"
            (waves * (clients - 1))
            (s.Server.coalesced + s.Server.cache_hits);
          let rate =
            float_of_int s.Server.coalesced
            /. float_of_int (s.Server.coalesced + s.Server.evals)
          in
          if rate < 0.25 then
            Alcotest.failf
              "coalesce rate %.3f below 0.25 (%d coalesced, %d cache hits, %d evals)"
              rate s.Server.coalesced s.Server.cache_hits s.Server.evals))

let test_poisoned_request_typed_error () =
  with_server (fun t addr ->
      with_client addr (fun cl ->
          (* depth 0 fails Eval.point's validation inside the supervised
             stage: the client must get a typed stage error, not a dead
             server *)
          let poison = { Space.baseline with Space.depth = 0 } in
          let line =
            Json.to_string
              (Protocol.request_to_json { Protocol.id = 9; op = Protocol.Eval poison })
          in
          (match Client.raw_roundtrip cl line with
          | Error e -> Alcotest.fail e
          | Ok resp -> (
              match Json.of_string resp with
              | Error e -> Alcotest.fail e
              | Ok j -> (
                  (match Json.member "ok" j with
                  | Some (Json.Bool false) -> ()
                  | _ -> Alcotest.fail "poisoned request did not fail");
                  match Option.bind (Json.member "error" j) (Json.member "kind") with
                  | Some (Json.Str "stage") -> ()
                  | _ -> Alcotest.fail "error kind is not \"stage\"")));
          Alcotest.(check bool) "server survives the poison" true (Client.ping cl);
          (match Client.eval cl (fresh_point ()) with
          | Ok _ -> ()
          | Error e -> Alcotest.fail (Protocol.err_to_string e));
          let s = Server.stats t in
          Alcotest.(check int) "poison counted as error" 1 s.Server.errors))

let test_malformed_line_survives () =
  with_server (fun _ addr ->
      with_client addr (fun cl ->
          (match Client.raw_roundtrip cl "{{{ not json" with
          | Ok resp -> (
              match Json.of_string resp with
              | Ok j -> (
                  match Option.bind (Json.member "error" j) (Json.member "kind") with
                  | Some (Json.Str "bad-request") -> ()
                  | _ -> Alcotest.fail "expected bad-request")
              | Error e -> Alcotest.fail e)
          | Error e -> Alcotest.fail e);
          Alcotest.(check bool) "connection still usable" true (Client.ping cl)))

let test_sweep_and_pareto_ops () =
  with_server (fun _ addr ->
      with_client addr (fun cl ->
          (match Client.request cl (Protocol.Sweep "smoke") with
          | Ok j ->
              (match Json.member "lattice" j with
              | Some (Json.Int 4) -> ()
              | _ -> Alcotest.fail "smoke lattice is not 4");
              (match Json.member "evaluated" j with
              | Some (Json.Int 4) -> ()
              | _ -> Alcotest.fail "smoke evaluated is not 4")
          | Error e -> Alcotest.fail (Protocol.err_to_string e));
          (match Client.request cl (Protocol.Pareto "smoke") with
          | Ok j -> (
              match Json.member "frontier" j with
              | Some (Json.List (_ :: _)) -> ()
              | _ -> Alcotest.fail "empty frontier")
          | Error e -> Alcotest.fail (Protocol.err_to_string e));
          match Client.request cl (Protocol.Sweep "no-such-preset") with
          | Error (Protocol.Bad_request _) -> ()
          | _ -> Alcotest.fail "unknown preset not rejected"))

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      try Unix.rmdir path with Unix.Unix_error _ -> ()
    end
    else try Sys.remove path with Sys_error _ -> ()

let test_store_survives_restart () =
  let store = Filename.temp_file "gap_serve_store" ".store" in
  Sys.remove store;
  Fun.protect
    ~finally:(fun () -> rm_rf store)
    (fun () ->
      let p = fresh_point () in
      let first =
        with_server ~store (fun _ addr ->
            with_client addr (fun cl ->
                match Client.eval cl p with
                | Ok j -> Json.to_string j
                | Error e -> Alcotest.fail (Protocol.err_to_string e)))
      in
      (match Cache.inspect_store store with
      | Cache.Store i ->
          Alcotest.(check int) "store holds the entry" 1 i.Cache.si_entries
      | Cache.Missing m | Cache.Foreign m ->
          Alcotest.fail ("store unreadable after stop: " ^ m)
      | Cache.Corrupt e ->
          Alcotest.fail
            ("store unreadable after stop: " ^ Stage_error.to_string e));
      with_server ~store (fun t addr ->
          with_client addr (fun cl ->
              (match Client.eval cl p with
              | Ok j ->
                  Alcotest.(check string)
                    "restarted daemon replays byte-identically" first
                    (Json.to_string j)
              | Error e -> Alcotest.fail (Protocol.err_to_string e));
              let s = Server.stats t in
              Alcotest.(check int) "no re-evaluation after restart" 0 s.Server.evals;
              Alcotest.(check int) "served from the reloaded store" 1 s.Server.cache_hits)))

let test_stop_idempotent_and_refuses_new_conns () =
  let path = fresh_sock () in
  let addr = Protocol.Unix_sock path in
  let t = Server.create (Server.default_config addr) in
  Server.start t;
  with_client addr (fun cl -> Alcotest.(check bool) "up" true (Client.ping cl));
  Server.stop t;
  Server.stop t;
  Server.wait t;
  (match Client.connect_retry ~base_delay_s:0.01 ~deadline_s:0.05 addr with
  | Error _ -> ()
  | Ok cl ->
      (* a socket file may linger only if stop failed to unlink it *)
      Client.close cl;
      Alcotest.fail "daemon accepted a connection after stop");
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)

let test_shutdown_request_stops_server () =
  let path = fresh_sock () in
  let addr = Protocol.Unix_sock path in
  let t = Server.create (Server.default_config addr) in
  Server.start t;
  with_client addr (fun cl -> Client.shutdown cl);
  (* the shutdown request triggers a graceful stop; wait must return *)
  Server.wait t;
  Alcotest.(check bool) "socket gone after shutdown" false (Sys.file_exists path)

(* --- regressions for the concurrency bugs the daemon flushed out --- *)

(* Span stacks used to live in Domain.DLS, which systhreads share: two
   threads opening spans concurrently corrupted each other's nesting. Each
   thread must see its own stack — same aggregate whatever the
   interleaving. *)
let test_span_stacks_per_thread () =
  let sink = Obs.recorder () in
  Obs.with_sink sink (fun () ->
      let threads = 4 and reps = 50 in
      let body () =
        for _ = 1 to reps do
          Obs.span "outer" (fun () ->
              Thread.yield ();
              Obs.span "inner" (fun () -> Thread.yield ()))
        done
      in
      let ths = Array.init threads (fun _ -> Thread.create body ()) in
      Array.iter Thread.join ths);
  let spans = Obs.spans sink in
  let calls path =
    match List.find_opt (fun s -> s.Obs.path = path) spans with
    | Some s -> s.Obs.calls
    | None -> 0
  in
  Alcotest.(check int) "outer spans all recorded" 200 (calls "outer");
  Alcotest.(check int)
    "inner spans all nested under outer, never under another thread's frame"
    200 (calls "outer/inner");
  Alcotest.(check int)
    "no span aggregated at a corrupted path" 2 (List.length spans)

(* Cache listings must be deterministic whatever order the hash table
   iterates in. *)
let test_cache_entries_sorted () =
  let c = Cache.create ~capacity:64 () in
  List.iter
    (fun p -> Cache.add c p (Eval.point p))
    (Space.enumerate (Option.get (Space.find_preset "smoke")));
  let keys =
    List.map (fun (p, _) -> Gap_dse.Key.of_point p) (Cache.entries c)
  in
  Alcotest.(check bool)
    "entries sorted by key" true
    (keys = List.sort String.compare keys);
  Alcotest.(check int) "all entries listed" 4 (List.length keys)

let suite =
  [
    ("protocol round-trip", `Quick, test_protocol_roundtrip);
    ("address parsing", `Quick, test_addr_parsing);
    ("eval responses byte-identical to CLI", `Quick, test_serve_eval_byte_identical);
    ( "N concurrent identical requests, 1 eval",
      `Quick,
      test_concurrent_coalesce ~clients:16 ~waves:1 ~unique:0 );
    ( "coalescing waves: 32 clients, 4 waves, 2 unique",
      `Quick,
      test_concurrent_coalesce ~clients:32 ~waves:4 ~unique:2 );
    ("poisoned request returns typed error", `Quick, test_poisoned_request_typed_error);
    ("malformed line survives", `Quick, test_malformed_line_survives);
    ("sweep and pareto over the wire", `Quick, test_sweep_and_pareto_ops);
    ("store survives restart", `Quick, test_store_survives_restart);
    ("stop idempotent, socket removed", `Quick, test_stop_idempotent_and_refuses_new_conns);
    ("shutdown request stops server", `Quick, test_shutdown_request_stops_server);
    ("span stacks per thread", `Quick, test_span_stacks_per_thread);
    ("cache entries sorted", `Quick, test_cache_entries_sorted);
  ]
