module Obs = Gap_obs.Obs

type spec = {
  site : string;
  kind : Stage_error.fault_kind;
  skip : int;
  hits : int;
}

let spec ?(skip = 0) ?(hits = 1) site kind = { site; kind; skip; hits }

type report = {
  sites_hit : (string * int) list;
  injected : (string * int) list;
}

let catalog =
  [
    ("synth.map", [ Stage_error.Transient ], "technology mapping fails transiently; the flow retries");
    ("synth.sizing", [ Stage_error.Transient ], "TILOS sizing fails transiently at stage entry; the flow retries");
    ("sta.analyze", [ Stage_error.Transient ], "timing analysis fails transiently; the caller retries");
    ("place.sweep", [ Stage_error.Transient; Stage_error.Deadline ],
     "an anneal sweep dies; the placer falls back to its best-so-far checkpoint");
    ("place.parasitic", [ Stage_error.Corrupt ],
     "a back-annotated wire delay is corrupted to NaN; gates/STA reject it with a typed diagnostic");
    ("mc.worker", [ Stage_error.Worker_kill ],
     "a Monte Carlo worker domain dies; all domains are joined and the run degrades to sequential");
    ("mc.budget", [ Stage_error.Deadline ],
     "the Monte Carlo budget is exhausted up front; the run degrades to fewer domains");
    ("dse.worker", [ Stage_error.Worker_kill ],
     "a DSE pool worker domain dies after claiming a point; the pool rejoins and \
      re-runs the orphaned points sequentially under supervision");
    ("segstore.append", [ Stage_error.Transient ],
     "a segment-store record append fails transiently before the write; the \
      cache flush retries and duplicate appends stay harmless (last record \
      per key wins)");
    ("segstore.compact", [ Stage_error.Transient ],
     "a segment-store compaction fails transiently before writing the new \
      generation; the old generation stays fully valid and the caller \
      retries");
    ("gap_fpga.lutmap", [ Stage_error.Transient ],
     "LUT covering fails transiently at stage entry; the FPGA backend \
      retries the pure mapping");
    ("gap_fpga.route", [ Stage_error.Corrupt ],
     "a fixed-fabric routing hop delay is corrupted to NaN; strict gates \
      and the supervised STA NaN scan reject it with a typed diagnostic");
    ("serve.batch", [ Stage_error.Transient ],
     "a server batch dies before evaluation; the request thread running it \
      retries the batch, then resolves every attached request with a typed \
      error instead of wedging its clients");
  ]

let layer site =
  match String.index_opt site '.' with
  | Some i -> String.sub site 0 i
  | None -> site

(* armed state: one option read when off; mutex-protected because worker
   domains hit sites too *)
type slot = { s_kind : Stage_error.fault_kind; mutable s_skip : int; mutable s_hits : int }

type state = {
  lock : Mutex.t;
  slots : (string, slot) Hashtbl.t;
  hit_counts : (string, int ref) Hashtbl.t;
  mutable hit_order : string list;  (* reverse first-hit order *)
  inj_counts : (string, int ref) Hashtbl.t;
  mutable inj_order : string list;
}

let ambient : state option ref = ref None
let armed () = Option.is_some !ambient

let locked st f =
  Mutex.lock st.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock st.lock) f

let bump tbl order name =
  (match Hashtbl.find_opt tbl name with
  | Some c -> incr c
  | None ->
      Hashtbl.add tbl name (ref 1);
      order := name :: !order);
  ()

(* decide under the lock; raise outside it *)
let consume st site =
  locked st (fun () ->
      let o = ref st.hit_order in
      bump st.hit_counts o site;
      st.hit_order <- !o;
      match Hashtbl.find_opt st.slots site with
      | None -> None
      | Some slot ->
          if slot.s_skip > 0 then begin
            slot.s_skip <- slot.s_skip - 1;
            None
          end
          else if slot.s_hits > 0 then begin
            slot.s_hits <- slot.s_hits - 1;
            let o = ref st.inj_order in
            bump st.inj_counts o site;
            st.inj_order <- !o;
            Some slot.s_kind
          end
          else None)

let point site =
  match !ambient with
  | None -> ()
  | Some st -> (
      match consume st site with
      | None -> ()
      | Some kind ->
          Obs.incr "fault.injected";
          Obs.event "fault.inject"
            [
              ("site", Gap_obs.Json.Str site);
              ("kind", Gap_obs.Json.Str (Stage_error.kind_string kind));
            ];
          raise (Stage_error.Stage_failure (Stage_error.Injected { site; kind })))

let corrupt_float site v =
  match !ambient with
  | None -> v
  | Some st -> (
      match consume st site with
      | Some Stage_error.Corrupt ->
          Obs.incr "fault.injected";
          Obs.event "fault.inject"
            [
              ("site", Gap_obs.Json.Str site);
              ("kind", Gap_obs.Json.Str (Stage_error.kind_string Stage_error.Corrupt));
            ];
          Float.nan
      | Some kind ->
          (* a raise-kind spec armed at a corruption site still raises *)
          Obs.incr "fault.injected";
          raise (Stage_error.Stage_failure (Stage_error.Injected { site; kind }))
      | None -> v)

let with_plan specs f =
  let st =
    {
      lock = Mutex.create ();
      slots = Hashtbl.create 8;
      hit_counts = Hashtbl.create 16;
      hit_order = [];
      inj_counts = Hashtbl.create 8;
      inj_order = [];
    }
  in
  List.iter
    (fun s ->
      Hashtbl.replace st.slots s.site
        { s_kind = s.kind; s_skip = s.skip; s_hits = s.hits })
    specs;
  let prev = !ambient in
  ambient := Some st;
  let result =
    Fun.protect
      ~finally:(fun () -> ambient := prev)
      (fun () -> match f () with v -> Ok v | exception e -> Error e)
  in
  let dump counts order =
    List.rev_map (fun name -> (name, !(Hashtbl.find counts name))) order
  in
  (result, { sites_hit = dump st.hit_counts st.hit_order;
             injected = dump st.inj_counts st.inj_order })
