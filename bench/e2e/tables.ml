(* The [tables] workload: what [repro all] does for the paper's claims —
   look up E1..E11 and render each table once. One operation is one
   experiment. Every rendering must hash to its committed digest and every
   checkable row must land in the paper's range. *)

module Registry = Gap_experiments.Registry
module Exp = Gap_experiments.Exp

let ids = function
  | Common.Full -> List.init 11 (fun i -> Printf.sprintf "E%d" (i + 1))
  (* the three experiments that finish in milliseconds *)
  | Common.Smoke -> [ "E1"; "E5"; "E9" ]

let digest s = Gap_util.Hash.(to_hex (of_string s))

(* golden/tables.txt: one "<id> <fnv1a-64 hex of Exp.render>" per line *)
let golden =
  lazy
    (String.split_on_char '\n' Golden.tables
    |> List.filter_map (fun line ->
           match String.split_on_char ' ' (String.trim line) with
           | [ id; hex ] -> Some (id, hex)
           | _ -> None))

(* [Some reason] unless the rendering matches its golden digest and every
   checkable row is in range. *)
let check id ((res : Exp.result), rendered) =
  let got = digest rendered in
  let digest_problem =
    match List.assoc_opt id (Lazy.force golden) with
    | Some want when String.equal want got -> []
    | Some want -> [ Printf.sprintf "%s: render digest %s, golden %s" id got want ]
    | None -> [ Printf.sprintf "%s: no golden digest (render digest %s)" id got ]
  in
  let p, c = Exp.passes res in
  let range_problem =
    if p = c then [] else [ Printf.sprintf "%s: %d of %d checkable rows in range" id p c ]
  in
  match digest_problem @ range_problem with
  | [] -> None
  | ps -> Some (String.concat "; " ps)

let run (ctx : Common.ctx) =
  let r = Common.empty_report () in
  let ops =
    List.map
      (fun id ->
        match Registry.find id with
        | Some run ->
            ( "exp." ^ id,
              (fun () ->
                let res = run () in
                (res, Exp.render res)),
              check id )
        | None -> invalid_arg ("tables: unknown experiment " ^ id))
      (ids ctx.Common.scale)
  in
  Common.setup_done ctx r;
  Common.batch ctx r ~ops
    ~attribution:(fun () -> Synth_layers.run (Synth_layers.experiment_designs ctx.Common.scale))
