module Json = Gap_obs.Json
module Obs = Gap_obs.Obs
module Stage_error = Gap_resilience.Stage_error
module Fault = Gap_resilience.Fault
module Supervisor = Gap_resilience.Supervisor
module Checkpoint = Gap_resilience.Checkpoint

(* --- checkpointed experiment runs --- *)

type exp_record = {
  id : string;
  title : string;
  render : string;
  pass : int;
  checkable : int;
}

type run_outcome = Done of exp_record | Failed of string * Stage_error.t

let title_of id =
  match
    List.find_opt (fun (i, _, _) -> i = id) (Registry.all @ Registry.extensions)
  with
  | Some (_, title, _) -> title
  | None -> id

let campaign_tag = "experiments"

let record_json r =
  Json.Obj
    [
      ("id", Json.Str r.id);
      ("title", Json.Str r.title);
      ("render", Json.Str r.render);
      ("pass", Json.Int r.pass);
      ("checkable", Json.Int r.checkable);
    ]

let record_of_json j =
  match
    ( Json.member "id" j,
      Json.member "title" j,
      Json.member "render" j,
      Json.member "pass" j,
      Json.member "checkable" j )
  with
  | ( Some (Json.Str id),
      Some (Json.Str title),
      Some (Json.Str render),
      Some (Json.Int pass),
      Some (Json.Int checkable) ) ->
      { id; title; render; pass; checkable }
  | _ -> failwith "checkpoint: malformed experiment record"

let save_checkpoint path ids completed =
  Checkpoint.save ~path ~campaign:campaign_tag
    (Json.Obj
       [
         ("ids", Json.List (List.map (fun id -> Json.Str id) ids));
         ("completed", Json.List (List.map record_json (List.rev completed)));
       ])

let load_checkpoint path =
  match Checkpoint.load ~path with
  | Error e -> failwith e
  | Ok (campaign, payload) ->
      if campaign <> campaign_tag then
        failwith
          (Printf.sprintf "%s: checkpoint is a %S campaign, not experiments"
             path campaign);
      let str_list = function
        | Some (Json.List l) ->
            List.map (function Json.Str s -> s | _ -> failwith "checkpoint: bad id") l
        | _ -> failwith "checkpoint: missing ids"
      in
      let records =
        match Json.member "completed" payload with
        | Some (Json.List l) -> List.map record_of_json l
        | _ -> failwith "checkpoint: missing completed list"
      in
      (str_list (Json.member "ids" payload), records)

let run_loop ?checkpoint ?stop_after ~ids ~completed () =
  let runs =
    List.map
      (fun id ->
        match Registry.find id with
        | Some run -> (id, run)
        | None -> failwith (Printf.sprintf "unknown experiment id %s" id))
      ids
  in
  (* [completed] holds records in reverse completion order *)
  let completed = ref (List.rev completed) in
  let recorded id =
    List.find_opt (fun r -> r.id = id) !completed
  in
  Option.iter (fun path -> save_checkpoint path ids !completed) checkpoint;
  let fresh = ref 0 in
  let stopped = ref false in
  let outcomes = ref [] in
  List.iter
    (fun (id, run) ->
      if not !stopped then
        match recorded id with
        | Some r -> outcomes := Done r :: !outcomes
        | None ->
            if match stop_after with Some k -> !fresh >= k | None -> false then
              stopped := true
            else begin
              incr fresh;
              let o =
                Supervisor.run_stage ~policy:Supervisor.no_retry
                  ~stage:("exp." ^ id) run
              in
              match o.Supervisor.result with
              | Ok result ->
                  let pass, checkable = Exp.passes result in
                  let r =
                    {
                      id;
                      (* the result's own title, not the registry's short one:
                         Registry.summary prints the former and [output] must
                         stay byte-identical to it *)
                      title = result.Exp.title;
                      render = Exp.render result;
                      pass;
                      checkable;
                    }
                  in
                  completed := r :: !completed;
                  Option.iter
                    (fun path -> save_checkpoint path ids !completed)
                    checkpoint;
                  outcomes := Done r :: !outcomes
              | Error err -> outcomes := Failed (id, err) :: !outcomes
            end)
    runs;
  List.rev !outcomes

let run_experiments ?checkpoint ?stop_after ~ids () =
  run_loop ?checkpoint ?stop_after ~ids ~completed:[] ()

let resume_experiments ~checkpoint ?stop_after () =
  let ids, completed = load_checkpoint checkpoint in
  run_loop ~checkpoint ?stop_after ~ids ~completed ()

let output outcomes =
  let buf = Buffer.create 4096 in
  List.iter
    (function
      | Done r -> Buffer.add_string buf r.render
      | Failed (id, err) ->
          Buffer.add_string buf
            (Printf.sprintf "=== %s: FAILED ===\n%s\n" id
               (Stage_error.to_string err)))
    outcomes;
  Buffer.add_char buf '\n';
  let total_p = ref 0 and total_c = ref 0 and failures = ref 0 in
  List.iter
    (function
      | Done r ->
          total_p := !total_p + r.pass;
          total_c := !total_c + r.checkable;
          Buffer.add_string buf
            (Printf.sprintf "%-4s %-45s %d/%d in paper range\n" r.id r.title
               r.pass r.checkable)
      | Failed (id, _) ->
          incr failures;
          Buffer.add_string buf
            (Printf.sprintf "%-4s %-45s FAILED\n" id (title_of id)))
    outcomes;
  Buffer.add_string buf
    (Printf.sprintf
       "TOTAL: %d/%d checkable claims within the paper's stated ranges\n"
       !total_p !total_c);
  if !failures > 0 then
    Buffer.add_string buf
      (Printf.sprintf "FAILED: %d experiment(s) did not complete\n" !failures);
  Buffer.contents buf

let all_passed outcomes =
  List.for_all
    (function Done r -> r.pass = r.checkable | Failed _ -> false)
    outcomes

(* --- the fault campaign --- *)

module Space = Gap_dse.Space
module Eval = Gap_dse.Eval
module Cache = Gap_dse.Cache
module Segstore = Gap_dse.Segstore
module Server = Gap_serve.Server
module Client = Gap_serve.Client
module Protocol = Gap_serve.Protocol

type fault_outcome =
  | Passed
  | Recovered
  | Degraded
  | Failed_typed of Stage_error.t
  | Silent
  | Uncaught of string
  | Not_exercised
  | Check_failed of string

type arm = {
  site : string;
  kind : Stage_error.fault_kind;
  skip : int;
  hits : int;
  injected : int;
}

type row_result = {
  row : string;
  arms : arm list;
  checks : int;
  retries : int;
  degraded : int;
  outcome : fault_outcome;
}

let outcome_string = function
  | Passed -> "passed"
  | Recovered -> "recovered"
  | Degraded -> "degraded"
  | Failed_typed _ -> "failed-typed"
  | Silent -> "silent"
  | Uncaught _ -> "uncaught"
  | Not_exercised -> "not-exercised"
  | Check_failed _ -> "check-failed"

let outcome_detail = function
  | Failed_typed err -> "failed-typed: " ^ Stage_error.to_string err
  | Uncaught e -> "uncaught: " ^ e
  | Check_failed m -> "check-failed: " ^ m
  | o -> outcome_string o

let outcome_ok = function
  | Passed | Recovered | Degraded | Failed_typed _ -> true
  | Silent | Uncaught _ | Not_exercised | Check_failed _ -> false

exception Check of string

let fail msg = raise (Check msg)

(* A row arms [(site, kind, max skip)] triples — [max skip] bounds the
   seeded skip so the fault lands within the hits the body generates — and
   runs its body with a [check] that counts assertions. The body returns
   the typed result of the stage it supervises; whatever escapes it, a
   failed check included, is a bug. *)
type row = {
  name : string;
  armed : (string * Stage_error.fault_kind * int) list;
  body : (bool -> string -> unit) -> (unit, Stage_error.t) result;
}

(* --- flow rows: small deterministic drivers, one per subsystem, sized so a
   full campaign stays fast; what matters is which sites a driver reaches
   and which recovery mechanism owns them --- *)

let campaign_lib () =
  Gap_liberty.Libgen.make Gap_tech.Tech.asic_025um Gap_liberty.Libgen.rich

let driver_synth () =
  let lib = campaign_lib () in
  ignore
    (Gap_synth.Flow.run ~lib ~name:"cla16" (Gap_datapath.Adders.cla_adder 16))

let low_effort_netlist () =
  let lib = campaign_lib () in
  (Gap_synth.Flow.run ~lib ~effort:Gap_synth.Flow.low_effort ~name:"cla16"
     (Gap_datapath.Adders.cla_adder 16))
    .Gap_synth.Flow.netlist

let driver_place () =
  let nl = low_effort_netlist () in
  ignore
    (Gap_place.Placer.place
       ~options:{ Gap_place.Placer.default_options with sweeps = 30; seed = 5L }
       nl)

let driver_annotate () =
  let nl = low_effort_netlist () in
  ignore
    (Gap_place.Placer.place
       ~options:{ Gap_place.Placer.default_options with sweeps = 10; seed = 5L }
       nl);
  (* strict gates so a corrupted parasitic trips the bad-parasitic rule as a
     typed Gate_failed -> Netlist_defect; the supervised STA NaN scan is the
     second line of defense *)
  let (), (_ : Gap_netlist.Check.gate_report list) =
    Gap_netlist.Check.with_gates ~strict:true (fun () ->
        Gap_place.Wire_estimate.annotate nl;
        ignore (Gap_sta.Sta.analyze nl))
  in
  ()

let driver_fpga () =
  (* same defense-in-depth as [driver_annotate]: strict gates catch a
     NaN hop delay as a typed Gate_failed, the supervised STA NaN scan is
     the second line; the transient lutmap fault is retried inside the
     backend itself *)
  let (_ : Gap_fpga.Backend.impl), (_ : Gap_netlist.Check.gate_report list) =
    Gap_netlist.Check.with_gates ~strict:true (fun () ->
        Gap_fpga.Backend.implement
          (Gap_fpga.Backend.fpga ())
          ~name:"cla16"
          (Gap_datapath.Adders.cla_adder 16))
  in
  ()

let flow_row name driver armed =
  {
    name;
    armed = [ armed ];
    body =
      (fun _ ->
        (Supervisor.run_stage ~policy:Supervisor.no_retry ~stage:name driver)
          .Supervisor.result);
  }

(* --- daemon rows: wreck a real store or a real daemon, then assert the
   crash-only contracts — the store validates, and a warm restart answers
   byte-identically to a never-killed evaluator --- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      try Unix.rmdir path with Unix.Unix_error _ -> ()
    end
    else try Sys.remove path with Sys_error _ -> ()

let scratch =
  let n = ref 0 in
  fun suffix ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "gap_faults_%d_%d%s" (Unix.getpid ()) !n suffix)

let with_scratch f =
  let p = scratch "" in
  rm_rf p;
  Fun.protect ~finally:(fun () -> rm_rf p) (fun () -> f p)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* distinct points with tiny Monte Carlo arms: an evaluation costs little,
   and a response is a pure function of its point *)
let wl_point i =
  {
    Space.baseline with
    Space.sigma_scale = 1.0 +. (0.0001 *. float_of_int (i + 1));
    mc_dies = 16;
  }

let workload = List.init 5 wl_point

let reference =
  lazy (List.map (fun p -> Json.to_string (Eval.to_json (Eval.point p))) workload)

let with_server ?(domains = 1) ?(queue_bound = 64) ?idle_timeout_s ?store f =
  let addr = Protocol.Unix_sock (scratch ".sock") in
  let t =
    Server.create
      {
        (Server.default_config addr) with
        Server.domains;
        queue_bound;
        store;
        idle_timeout_s;
      }
  in
  Server.start t;
  Fun.protect ~finally:(fun () -> Server.stop t) (fun () -> f t addr)

let with_client addr f =
  match Client.connect_retry addr with
  | Error e -> fail (Client.connect_error_to_string e)
  | Ok cl -> Fun.protect ~finally:(fun () -> Client.close cl) (fun () -> f cl)

let eval_all what cl pts =
  List.mapi
    (fun i p ->
      match Client.eval cl p with
      | Ok j -> Json.to_string j
      | Error e ->
          fail
            (Printf.sprintf "%s eval %d failed: %s" what i
               (Protocol.err_to_string e)))
    pts

let check_reference check what responses =
  List.iteri
    (fun i (got, expect) ->
      check (got = expect)
        (Printf.sprintf "%s response %d differs from reference" what i))
    (List.combine responses (Lazy.force reference))

let check_warm_identity check store =
  (* a restarted daemon on the surviving store answers the whole workload
     byte-identically to the evaluator itself, serving every stored point
     from the cache *)
  with_server ~store (fun t addr ->
      with_client addr (fun cl ->
          check_reference check "warm" (eval_all "warm" cl workload));
      let s = Server.stats t in
      check
        (s.Server.evals + s.Server.cache_hits = List.length workload)
        "warm run lost responses";
      match Segstore.validate store with
      | Ok info ->
          check
            (info.Segstore.i_keys = List.length workload)
            (Printf.sprintf "store holds %d keys, expected %d"
               info.Segstore.i_keys (List.length workload))
      | Error e -> fail ("store invalid after warm run: " ^ Stage_error.to_string e))

let row_sigkill check =
  with_scratch (fun store ->
      let sock = scratch ".sock" in
      let addr = Protocol.Unix_sock sock in
      match Unix.fork () with
      | 0 ->
          (* child: serve until killed; never return into the campaign *)
          (try
             let t =
               Server.create
                 { (Server.default_config addr) with Server.store = Some store }
             in
             Server.start t;
             Server.wait t
           with _ -> ());
          Unix._exit 0
      | pid ->
          Fun.protect
            ~finally:(fun () ->
              (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
              (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
              try Sys.remove sock with Sys_error _ -> ())
            (fun () ->
              (* land two results, then kill without warning *)
              with_client addr (fun cl ->
                  ignore (eval_all "pre-kill" cl [ wl_point 0; wl_point 1 ]);
                  Unix.kill pid Sys.sigkill;
                  ignore (Unix.waitpid [] pid));
              (match Segstore.validate store with
              | Ok info ->
                  check
                    (info.Segstore.i_keys <= List.length workload)
                    "killed store holds more keys than were evaluated"
              | Error e ->
                  fail ("store invalid after SIGKILL: " ^ Stage_error.to_string e));
              check_warm_identity check store))

let row_append check =
  with_scratch (fun store ->
      with_server ~store (fun t addr ->
          with_client addr (fun cl -> ignore (eval_all "faulted" cl workload));
          check
            ((Server.stats t).Server.flush_failures = 0)
            "flush reported failure despite retry budget");
      check_warm_identity check store)

let row_compact check =
  with_scratch (fun store ->
      let listing c =
        String.concat "\n"
          (List.map
             (fun (p, m) ->
               Json.to_string (Space.point_json p)
               ^ "=" ^ Json.to_string (Eval.to_json m))
             (Cache.entries c))
      in
      let c = Cache.create ~store () in
      List.iter (fun p -> Cache.add c p (Eval.point p)) workload;
      Cache.flush c;
      let before = listing c in
      let gen_before =
        match Cache.backend_stats c with
        | Some (_, _, g) -> g
        | None -> fail "no backend after flush"
      in
      (* the generation rewrite hits [segstore.compact]; its commit point is
         the manifest replace, so the retried attempt starts from the intact
         old generation *)
      Cache.compact c;
      check (listing c = before) "live set changed across faulted compaction";
      (match Cache.backend_stats c with
      | Some (records, _, g) ->
          check (g > gen_before) "compaction did not advance the generation";
          check (records = List.length workload) "compaction lost or duplicated records"
      | None -> fail "backend vanished after compaction");
      (match Segstore.validate store with
      | Ok info ->
          check (info.Segstore.i_torn = None) "compacted store reports a torn tail"
      | Error e ->
          fail ("store invalid after faulted compaction: " ^ Stage_error.to_string e));
      check (listing (Cache.create ~store ()) = before) "reloaded live set differs")

let row_batch check =
  with_scratch (fun store ->
      with_server ~store (fun _ addr ->
          with_client addr (fun cl ->
              check_reference check "recovered-fault" (eval_all "faulted" cl workload)));
      (* exhaustion: more consecutive injections than the retry budget must
         resolve the batch with typed per-request errors, and the daemon
         survives; this inner plan replaces the row's for its extent *)
      let result, report =
        Fault.with_plan
          [ Fault.spec ~hits:8 "serve.batch" Stage_error.Transient ]
          (fun () ->
            with_server (fun t addr ->
                with_client addr (fun cl ->
                    (match Client.eval cl (wl_point 0) with
                    | Error (Protocol.Bad_request m) ->
                        (* the wire collapses stage errors client-side; the
                           typed payload must still carry the injection *)
                        check (contains ~sub:"injected" m)
                          "exhausted batch error does not carry the typed payload"
                    | Error e ->
                        fail
                          ("exhausted batch returned wrong class: "
                          ^ Protocol.err_to_string e)
                    | Ok _ -> fail "exhausted retry budget still succeeded");
                    check (Client.ping cl) "daemon died with the failed batch";
                    check ((Server.stats t).Server.errors >= 1) "typed failure not counted")))
      in
      (match result with Ok () -> () | Error e -> raise e);
      check
        (Option.value ~default:0 (List.assoc_opt "serve.batch" report.Fault.injected)
        >= 3)
        "exhaustion plan injected fewer faults than the retry budget";
      check_warm_identity check store)

let row_worker check =
  (* the variation preset's binned Monte Carlo points: pool workers hold
     their claims long enough that spawned domains reach [dse.worker] more
     often than the seeded skip before the calling domain drains the
     batch *)
  with_server ~domains:4 (fun _ addr ->
      with_client addr (fun cl ->
          match Client.request cl (Protocol.Sweep "variation") with
          | Ok doc ->
              let geti k =
                match Json.member k doc with
                | Some (Json.Int n) -> n
                | _ -> fail ("sweep doc missing " ^ k)
              in
              check (geti "evaluated" = geti "lattice") "worker kill lost sweep points";
              check (geti "refused" = 0) "worker kill refused points";
              check (Json.member "failed" doc = Some (Json.List [])) "worker kill failed points"
          | Error e ->
              fail ("sweep failed under worker kill: " ^ Protocol.err_to_string e)))

let row_disconnect check =
  with_scratch (fun store ->
      with_server ~store (fun t addr ->
          (* fire an eval and hang up without reading the response *)
          with_client addr (fun cl ->
              Client.send_line cl
                (Json.to_string
                   (Protocol.request_to_json
                      { Protocol.id = 1; op = Protocol.Eval (wl_point 0) })));
          (* and one that hangs up mid-line *)
          with_client addr (fun cl -> Client.send_raw cl "{\"id\": 2, \"op\": \"ev");
          with_client addr (fun cl ->
              check (Client.ping cl) "daemon unreachable after disconnects";
              check
                (eval_all "post-disconnect" cl [ wl_point 1 ]
                = [ List.nth (Lazy.force reference) 1 ])
                "response corrupted after disconnects");
          (* the hung-up connections were accepted before the live one, but
             on a loaded host their reader threads may not have run yet *)
          let rec registered tries =
            (Server.stats t).Server.clients_seen >= 3
            || (tries > 0 && (Unix.sleepf 0.01; registered (tries - 1)))
          in
          check (registered 500) "disconnected clients not registered"))

let row_idle_eviction check =
  with_server ~idle_timeout_s:0.3 (fun t addr ->
      let sa = Protocol.sockaddr_of_addr addr in
      let fd = Unix.socket ~cloexec:true (Unix.domain_of_sockaddr sa) Unix.SOCK_STREAM 0 in
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      Fun.protect
        ~finally:(fun () -> try close_out_noerr oc with _ -> ())
        (fun () ->
          Unix.connect fd sa;
          output_string oc "{\"id\": 1, \"op\": \"ping\"}\n";
          flush oc;
          check (input_line ic <> "") "no ping response";
          (* now go silent past the deadline; the daemon must speak first *)
          (match input_line ic with
          | line -> (
              match Result.bind (Json.of_string line) Protocol.response_of_json with
              | Ok { Protocol.r_id = 0; body = Error (Protocol.Timeout _) } ->
                  check true "typed timeout received"
              | Ok _ -> fail "eviction response not a typed timeout"
              | Error e -> fail ("bad eviction line: " ^ e))
          | exception End_of_file ->
              (* a hangup without the courtesy line is a failure too: the
                 contract is a typed timeout whenever the socket is writable *)
              fail "evicted without a typed timeout response");
          match input_line ic with
          | _ -> fail "connection survived its eviction"
          | exception End_of_file -> check true "connection closed after eviction");
      (* an active client outlives many idle periods *)
      with_client addr (fun cl ->
          for _ = 1 to 3 do
            Unix.sleepf 0.1;
            check (Client.ping cl) "active client evicted"
          done);
      check ((Server.stats t).Server.idle_evictions >= 1) "eviction not counted")

let row_overload check =
  with_scratch (fun store ->
      let clients = 4 and per_client = 6 in
      let results = Array.make clients [] in
      with_server ~store ~queue_bound:2 (fun t addr ->
          let threads =
            Array.init clients (fun c ->
                Thread.create
                  (fun () ->
                    match Client.connect_retry addr with
                    | Error e -> results.(c) <- [ Error (Client.connect_error_to_string e) ]
                    | Ok cl ->
                        Fun.protect
                          ~finally:(fun () -> Client.close cl)
                          (fun () ->
                            results.(c) <-
                              List.init per_client (fun i ->
                                  let p =
                                    {
                                      (wl_point 0) with
                                      Space.sigma_scale =
                                        2.0 +. (0.0001 *. float_of_int ((c * per_client) + i));
                                    }
                                  in
                                  Result.map_error Protocol.err_to_string (Client.eval cl p))))
                  ())
          in
          Array.iter Thread.join threads;
          Array.iteri
            (fun c rs ->
              check (List.length rs = per_client)
                (Printf.sprintf "client %d lost responses" c);
              List.iteri
                (fun i r ->
                  match r with
                  | Ok _ -> ()
                  | Error e -> fail (Printf.sprintf "client %d response %d: %s" c i e))
                rs)
            results;
          let s = Server.stats t in
          check (s.Server.evals = clients * per_client)
            (Printf.sprintf "expected %d evals, ran %d" (clients * per_client)
               s.Server.evals));
      match Segstore.validate store with
      | Ok info ->
          check (info.Segstore.i_keys = clients * per_client) "store lost entries under overload";
          check (info.Segstore.i_torn = None) "store torn after graceful stop"
      | Error e -> fail ("store invalid after overload: " ^ Stage_error.to_string e))

let daemon_row name armed f =
  { name; armed; body = (fun check -> f check; Ok ()) }

(* Rows run in this order. sigkill-restart comes first: OCaml 5 refuses
   [Unix.fork] once any domain has been spawned, and later rows spawn. *)
let rows =
  [
    daemon_row "sigkill-restart" [] row_sigkill;
    flow_row "synth-cla16" driver_synth ("synth.map", Stage_error.Transient, 0);
    flow_row "synth-cla16" driver_synth ("synth.sizing", Stage_error.Transient, 0);
    flow_row "synth-cla16" driver_synth ("sta.analyze", Stage_error.Transient, 5);
    flow_row "place-cla16" driver_place ("place.sweep", Stage_error.Transient, 20);
    flow_row "annotate-cla16" driver_annotate ("place.parasitic", Stage_error.Corrupt, 10);
    flow_row "fpga-cla16" driver_fpga ("gap_fpga.lutmap", Stage_error.Transient, 0);
    flow_row "fpga-cla16" driver_fpga ("gap_fpga.route", Stage_error.Corrupt, 20);
    daemon_row "fault:segstore.append" [ ("segstore.append", Stage_error.Transient, 2) ] row_append;
    daemon_row "fault:segstore.compact" [ ("segstore.compact", Stage_error.Transient, 0) ] row_compact;
    daemon_row "fault:serve.batch" [ ("serve.batch", Stage_error.Transient, 0) ] row_batch;
    daemon_row "fault:dse.worker" [ ("dse.worker", Stage_error.Worker_kill, 2) ] row_worker;
    daemon_row "client-disconnect" [] row_disconnect;
    daemon_row "slow-reader-eviction" [] row_idle_eviction;
    daemon_row "overload" [] row_overload;
  ]

let run_row rng r =
  let specs =
    List.map
      (fun (site, kind, max_skip) ->
        let skip = if max_skip <= 0 then 0 else Gap_util.Rng.int rng (max_skip + 1) in
        Fault.spec ~skip site kind)
      r.armed
  in
  let checks = ref 0 in
  let check cond msg =
    incr checks;
    if not cond then fail msg
  in
  let sink = Obs.recorder () in
  let result, report =
    Obs.with_sink sink (fun () -> Fault.with_plan specs (fun () -> r.body check))
  in
  let count site l = Option.value ~default:0 (List.assoc_opt site l) in
  let arms =
    List.map
      (fun (s : Fault.spec) ->
        {
          site = s.site;
          kind = s.kind;
          skip = s.skip;
          hits = count s.site report.Fault.sites_hit;
          injected = count s.site report.Fault.injected;
        })
      specs
  in
  let retries = Obs.counter_value sink "resilience.retries" in
  let degraded =
    Obs.counter_value sink "place.anneal_recoveries"
    + Obs.counter_value sink "dse.pool.degraded"
  in
  let outcome =
    match result with
    | Error (Check m) -> Check_failed m
    | Error e -> Uncaught (Printexc.to_string e)
    | Ok _ when List.exists (fun a -> a.injected = 0) arms -> Not_exercised
    | Ok (Error err) -> Failed_typed err
    | Ok (Ok ()) ->
        if arms = [] then if !checks > 0 then Passed else Not_exercised
        else if degraded > 0 then Degraded
        else if retries > 0 then Recovered
        else Silent
  in
  { row = r.name; arms; checks = !checks; retries; degraded; outcome }

let run_faults ?(seed = 2027L) () =
  let rng = Gap_util.Rng.create ~seed () in
  List.map (run_row rng) rows

let coverage results =
  List.concat_map
    (fun (site, kinds, _) ->
      List.map
        (fun kind ->
          let injected =
            List.fold_left
              (fun n r ->
                List.fold_left
                  (fun n a -> if a.site = site && a.kind = kind then n + a.injected else n)
                  n r.arms)
              0 results
          in
          (site, kind, injected))
        kinds)
    Fault.catalog

let uncovered results =
  List.filter_map
    (fun (site, kind, n) -> if n = 0 then Some (site, kind) else None)
    (coverage results)

let faults_ok results =
  results <> []
  && uncovered results = []
  && List.for_all (fun r -> outcome_ok r.outcome) results

let faults_json ~seed results =
  let pair site kind =
    [ ("site", Json.Str site); ("kind", Json.Str (Stage_error.kind_string kind)) ]
  in
  let arm_json a =
    Json.Obj
      (pair a.site a.kind
      @ [
          ("skip", Json.Int a.skip);
          ("hits", Json.Int a.hits);
          ("injected", Json.Int a.injected);
        ])
  in
  let row_json r =
    Json.Obj
      ([
         ("row", Json.Str r.row);
         ("arms", Json.List (List.map arm_json r.arms));
         ("checks", Json.Int r.checks);
         ("retries", Json.Int r.retries);
         ("degraded", Json.Int r.degraded);
         ("outcome", Json.Str (outcome_string r.outcome));
       ]
      @
      match r.outcome with
      | Failed_typed err -> [ ("error", Stage_error.to_json err) ]
      | Uncaught m | Check_failed m -> [ ("error", Json.Str m) ]
      | _ -> [])
  in
  let count p = Json.Int (List.length (List.filter (fun r -> p r.outcome) results)) in
  let sum f = Json.Int (List.fold_left (fun a r -> a + f r) 0 results) in
  Json.Obj
    [
      ("version", Json.Int 2);
      ("seed", Json.Int (Int64.to_int seed));
      ("rows", Json.List (List.map row_json results));
      ( "coverage",
        Json.List
          (List.map
             (fun (site, kind, n) -> Json.Obj (pair site kind @ [ ("injected", Json.Int n) ]))
             (coverage results)) );
      ( "totals",
        Json.Obj
          [
            ("rows", Json.Int (List.length results));
            ("checks", sum (fun r -> r.checks));
            ("injected", sum (fun r -> List.fold_left (fun a x -> a + x.injected) 0 r.arms));
            ("passed", count (( = ) Passed));
            ("recovered", count (( = ) Recovered));
            ("degraded", count (( = ) Degraded));
            ("failed_typed", count (function Failed_typed _ -> true | _ -> false));
            ("bad", count (fun o -> not (outcome_ok o)));
            ("uncovered", Json.Int (List.length (uncovered results)));
          ] );
      ("ok", Json.Bool (faults_ok results));
    ]

let faults_table results =
  let arms f r = match r.arms with [] -> "-" | l -> String.concat "," (List.map f l) in
  Gap_util.Table.render
    ~aligns:
      Gap_util.Table.[ Left; Left; Left; Right; Right; Right; Right; Right; Right; Left ]
    ~header:
      [ "row"; "site"; "kind"; "skip"; "hits"; "inj"; "checks"; "retry"; "degrade"; "outcome" ]
    (List.map
       (fun r ->
         [
           r.row;
           arms (fun a -> a.site) r;
           arms (fun a -> Stage_error.kind_string a.kind) r;
           arms (fun a -> string_of_int a.skip) r;
           arms (fun a -> string_of_int a.hits) r;
           arms (fun a -> string_of_int a.injected) r;
           string_of_int r.checks;
           string_of_int r.retries;
           string_of_int r.degraded;
           outcome_detail r.outcome;
         ])
       results)
