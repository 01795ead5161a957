module Json = Gap_obs.Json
module Obs = Gap_obs.Obs
module Stage_error = Gap_resilience.Stage_error
module Supervisor = Gap_resilience.Supervisor

type entry = {
  e_key : string;
  e_point : Space.point;
  e_metrics : Eval.metrics;
  mutable e_tick : int;  (** last-use stamp for LRU eviction *)
}

(* Where the persistent side lives. [Lazy_store] defers touching the disk
   until the first flush — a cache that never flushes never writes — and is
   also the holding state for a foreign file that the first flush
   replaces. *)
type backend =
  | Mem
  | Seg of Segstore.t
  | Lazy_store of string

type t = {
  capacity : int;
  tbl : (string, entry) Hashtbl.t;
  mutable backend : backend;
  mutable pending : entry list;  (* adds since the last flush, newest first *)
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable dirty : bool;
  mutable recovery_note : string option;
}

type stats = {
  entries : int;
  capacity : int;
  hits : int;
  misses : int;
  evictions : int;
}

type store_info = {
  si_entries : int;
  si_records : int;
  si_segments : int;
  si_generation : int;
  si_flow : string;
  si_torn : string option;
}

type store_status =
  | Store of store_info
  | Missing of string
  | Foreign of string
  | Corrupt of Stage_error.t

(* --- segment-record payloads --- *)

let payload_of_entry e =
  Json.to_string
    (Json.Obj
       [
         ("point", Space.point_json e.e_point);
         ("metrics", Eval.to_json e.e_metrics);
       ])

let entry_of_payload ~store key payload =
  let fail detail =
    raise
      (Stage_error.Stage_failure
         (Stage_error.Storage_fault
            { stage = "dse.cache"; store; segment = ""; offset = -1; detail }))
  in
  match Json.of_string payload with
  | Error e -> fail (Printf.sprintf "undecodable record payload (%s): %s" key e)
  | Ok j -> (
      match (Json.member "point" j, Json.member "metrics" j) with
      | Some pj, Some mj -> (
          match (Space.point_of_json pj, Eval.of_json mj) with
          | Ok p, Ok m -> { e_key = key; e_point = p; e_metrics = m; e_tick = 0 }
          | _ -> fail (Printf.sprintf "record %s does not decode to a point" key))
      | _ -> fail (Printf.sprintf "record %s misses point/metrics" key))

(* --- construction --- *)

let sorted_entries t =
  Hashtbl.fold (fun _ e acc -> e :: acc) t.tbl []
  |> List.sort (fun a b -> String.compare a.e_key b.e_key)

let evict_lru t =
  (* O(n) scan; evictions only happen past [capacity], far off the sweep
     hot path. Ties on the tick (every entry loaded from a store carries
     tick 0 until touched) break on the key, not on Hashtbl iteration
     order, so the surviving set — and therefore the flushed store — is
     byte-identical across runs whatever order the table hashed to. *)
  let better b e =
    b.e_tick < e.e_tick
    || (b.e_tick = e.e_tick && String.compare b.e_key e.e_key <= 0)
  in
  let victim =
    Hashtbl.fold
      (fun _ e acc ->
        match acc with Some b when better b e -> acc | _ -> Some e)
      t.tbl None
  in
  match victim with
  | Some e ->
      Hashtbl.remove t.tbl e.e_key;
      t.evictions <- t.evictions + 1;
      Obs.incr "dse.cache.evict"
  | None -> ()

let create ?(capacity = 4096) ?store () =
  let t =
    {
      capacity = max 1 capacity;
      tbl = Hashtbl.create 64;
      backend = Mem;
      pending = [];
      tick = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
      dirty = false;
      recovery_note = None;
    }
  in
  (match store with
  | None -> ()
  | Some path ->
      if Sys.file_exists path && Sys.is_directory path then begin
        let s, records, note = Segstore.open_store ~flow:Eval.flow_version path in
        t.recovery_note <- note;
        List.iter
          (fun (key, payload) ->
            (* replay in append order: the last record per key wins *)
            Hashtbl.replace t.tbl key (entry_of_payload ~store:path key payload))
          records;
        while Hashtbl.length t.tbl > t.capacity do
          evict_lru t
        done;
        t.backend <- Seg s
      end
      else begin
        (* nothing there yet, or a foreign file: start cold; the first flush
           replaces a foreign file with a segment store at the current flow *)
        t.backend <- Lazy_store path;
        t.dirty <- Sys.file_exists path
      end);
  t

let recovery_note t = t.recovery_note

let touch t e =
  t.tick <- t.tick + 1;
  e.e_tick <- t.tick

let find t p =
  match Hashtbl.find_opt t.tbl (Key.of_point p) with
  | Some e ->
      touch t e;
      t.hits <- t.hits + 1;
      Obs.incr "dse.cache.hit";
      Some e.e_metrics
  | None ->
      t.misses <- t.misses + 1;
      Obs.incr "dse.cache.miss";
      None

let add t p m =
  let key = Key.of_point p in
  let e =
    match Hashtbl.find_opt t.tbl key with
    | Some e ->
        touch t e;
        e
    | None ->
        if Hashtbl.length t.tbl >= t.capacity then evict_lru t;
        let e = { e_key = key; e_point = p; e_metrics = m; e_tick = 0 } in
        touch t e;
        Hashtbl.add t.tbl key e;
        e
  in
  t.pending <- e :: t.pending;
  t.dirty <- true;
  Obs.incr "dse.cache.store"

(* pending adds, newest-first -> one record per key, sorted for
   deterministic on-disk order *)
let pending_records t =
  let seen = Hashtbl.create 16 in
  let uniq =
    List.filter
      (fun e ->
        if Hashtbl.mem seen e.e_key then false
        else begin
          Hashtbl.add seen e.e_key ();
          true
        end)
      t.pending
  in
  List.sort (fun a b -> String.compare a.e_key b.e_key) uniq

let encoded_entries t =
  List.map (fun e -> (e.e_key, payload_of_entry e)) (sorted_entries t)

(* compaction threshold: rewrite once the log holds enough superseded
   records that replay cost is dominated by garbage *)
let compact_due s ~live =
  let records = Segstore.records s in
  records > 64 && records > 2 * live

let do_flush t =
  match t.backend with
  | Mem -> ()
  | Lazy_store path ->
      (* first flush: materialize the store, replacing whatever foreign or
         stale file sat at the path *)
      if Sys.file_exists path && not (Sys.is_directory path) then
        (try Sys.remove path with Sys_error _ -> ());
      let s, _, _ = Segstore.open_store ~flow:Eval.flow_version path in
      List.iter
        (fun e -> Segstore.append s ~key:e.e_key (payload_of_entry e))
        (sorted_entries t);
      t.backend <- Seg s;
      t.pending <- []
  | Seg s ->
      if Segstore.stale s then begin
        (* stale-flow store: one rewrite brings it to the current flow with
           exactly the live entries (usually none) *)
        Segstore.rewrite s (encoded_entries t);
        t.pending <- []
      end
      else begin
        List.iter
          (fun e ->
            (* an entry evicted from memory after being queued still
               persists: the record outlives the LRU, matching a log *)
            Segstore.append s ~key:e.e_key (payload_of_entry e))
          (pending_records t);
        t.pending <- [];
        if compact_due s ~live:(Hashtbl.length t.tbl) then
          Segstore.rewrite s (encoded_entries t)
      end

let flush t =
  match t.backend with
  | Mem -> ()
  | Lazy_store _ | Seg _ ->
      if t.dirty then begin
        (* transient append/compaction faults retry here; duplicate appends
           from a half-done attempt are harmless (last record per key wins) *)
        Supervisor.retry ~stage:"dse.cache.flush" (fun () -> do_flush t);
        t.dirty <- false
      end

let try_flush t =
  match flush t with
  | () -> Ok ()
  | exception Stage_error.Stage_failure e -> Error e

let compact t =
  flush t;
  match t.backend with
  | Seg s ->
      Supervisor.retry ~stage:"dse.cache.compact" (fun () ->
          Segstore.rewrite s (encoded_entries t))
  | Mem | Lazy_store _ -> ()

(* key-sorted listing: renders and stores derived from it are byte-identical
   across runs regardless of insertion order *)
let entries t = List.map (fun e -> (e.e_point, e.e_metrics)) (sorted_entries t)

let stats t =
  {
    entries = Hashtbl.length t.tbl;
    capacity = t.capacity;
    hits = t.hits;
    misses = t.misses;
    evictions = t.evictions;
  }

let backend_stats t =
  match t.backend with
  | Seg s ->
      Some
        ( Segstore.records s,
          List.length (Segstore.segment_names s),
          Segstore.generation s )
  | Mem | Lazy_store _ -> None

let hit_rate s =
  let total = s.hits + s.misses in
  if total = 0 then 0. else float_of_int s.hits /. float_of_int total

let clear path =
  if Sys.file_exists path && not (Sys.is_directory path) then
    (try Sys.remove path with Sys_error _ -> ());
  let s, _, _ = Segstore.open_store ~flow:Eval.flow_version path in
  (* reset even a populated store to an empty fresh generation *)
  Segstore.rewrite s [];
  Segstore.close s

let inspect_store path =
  if not (Sys.file_exists path) then Missing (path ^ ": no such store")
  else if not (Sys.is_directory path) then
    Foreign (path ^ ": a file, not a segment-store directory")
  else
    match Segstore.validate path with
    | Error e -> Corrupt e
    | Ok i ->
        Store
          {
            si_entries = i.Segstore.i_keys;
            si_records = i.Segstore.i_records;
            si_segments = i.Segstore.i_segments;
            si_generation = i.Segstore.i_generation;
            si_flow = i.Segstore.i_flow;
            si_torn = i.Segstore.i_torn;
          }
