module Json = Gap_obs.Json

type fault_kind = Transient | Corrupt | Worker_kill

type t =
  | Netlist_defect of { stage : string; rule : string; detail : string }
  | Numeric_fault of { stage : string; what : string; value : float }
  | Injected of { site : string; kind : fault_kind }
  | Storage_fault of {
      stage : string;
      store : string;
      segment : string;
      offset : int;
      detail : string;
    }
  | Exhausted_retries of { stage : string; attempts : int; last : t }
  | Interrupted of { stage : string }
  | Unclassified of { stage : string; exn_text : string }

exception Stage_failure of t

let stage = function
  | Netlist_defect { stage; _ }
  | Numeric_fault { stage; _ }
  | Storage_fault { stage; _ }
  | Exhausted_retries { stage; _ }
  | Interrupted { stage }
  | Unclassified { stage; _ } ->
      stage
  | Injected { site; _ } -> site

let kind_string = function
  | Transient -> "transient"
  | Corrupt -> "corrupt"
  | Worker_kill -> "worker-kill"

let retryable = function
  | Injected { kind = Transient; _ } -> true
  | Netlist_defect _ | Numeric_fault _ | Injected _ | Storage_fault _
  | Exhausted_retries _ | Interrupted _ | Unclassified _ ->
      false

let rec to_string = function
  | Netlist_defect { stage; rule; detail } ->
      Printf.sprintf "[%s] netlist defect (%s): %s" stage rule detail
  | Numeric_fault { stage; what; value } ->
      Printf.sprintf "[%s] numeric fault: %s = %h" stage what value
  | Injected { site; kind } ->
      Printf.sprintf "[%s] injected %s fault" site (kind_string kind)
  | Storage_fault { stage; store; segment; offset; detail } ->
      Printf.sprintf "[%s] storage fault in %s (segment %s, offset %d): %s"
        stage store
        (if segment = "" then "-" else segment)
        offset detail
  | Exhausted_retries { stage; attempts; last } ->
      Printf.sprintf "[%s] gave up after %d attempt%s; last error: %s" stage
        attempts
        (if attempts = 1 then "" else "s")
        (to_string last)
  | Interrupted { stage } -> Printf.sprintf "[%s] interrupted" stage
  | Unclassified { stage; exn_text } ->
      Printf.sprintf "[%s] unclassified exception: %s" stage exn_text

let rec to_json e =
  let base tag fields =
    Json.Obj (("error", Json.Str tag) :: ("stage", Json.Str (stage e)) :: fields)
  in
  match e with
  | Netlist_defect { rule; detail; _ } ->
      base "netlist-defect"
        [ ("rule", Json.Str rule); ("detail", Json.Str detail) ]
  | Numeric_fault { what; value; _ } ->
      base "numeric-fault"
        [ ("what", Json.Str what); ("value", Json.Float value) ]
  | Injected { kind; _ } ->
      base "injected" [ ("kind", Json.Str (kind_string kind)) ]
  | Storage_fault { store; segment; offset; detail; _ } ->
      base "storage-fault"
        [
          ("store", Json.Str store);
          ("segment", Json.Str segment);
          ("offset", Json.Int offset);
          ("detail", Json.Str detail);
        ]
  | Exhausted_retries { attempts; last; _ } ->
      base "exhausted-retries"
        [ ("attempts", Json.Int attempts); ("last", to_json last) ]
  | Interrupted _ -> base "interrupted" []
  | Unclassified { exn_text; _ } ->
      base "unclassified" [ ("detail", Json.Str exn_text) ]

let () =
  Printexc.register_printer (function
    | Stage_failure e ->
        Some (Printf.sprintf "Gap_resilience.Stage_error.Stage_failure (%s)" (to_string e))
    | _ -> None)

(* classifiers, consulted in registration order *)
let classifiers : (stage:string -> exn -> t option) list ref = ref []
let register_classifier c = classifiers := !classifiers @ [ c ]

let of_exn ~stage:st e =
  match e with
  | Stage_failure err -> err
  | _ -> (
      let rec try_all = function
        | [] -> None
        | c :: rest -> ( match c ~stage:st e with Some v -> Some v | None -> try_all rest)
      in
      match try_all !classifiers with
      | Some v -> v
      | None -> Unclassified { stage = st; exn_text = Printexc.to_string e })
