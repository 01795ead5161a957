module Json = Gap_obs.Json
module Stage_error = Gap_resilience.Stage_error
module Space = Gap_dse.Space

type op =
  | Eval of Space.point
  | Sweep of string
  | Pareto of string
  | Stats
  | Ping
  | Shutdown

type request = { id : int; op : op }

type err =
  | Bad_request of string
  | Overloaded of string
  | Timeout of string
  | Stage of Stage_error.t

type response = { r_id : int; body : (Json.t, err) result }

let op_name = function
  | Eval _ -> "eval"
  | Sweep _ -> "sweep"
  | Pareto _ -> "pareto"
  | Stats -> "stats"
  | Ping -> "ping"
  | Shutdown -> "shutdown"

let request_to_json r =
  let base = [ ("id", Json.Int r.id); ("op", Json.Str (op_name r.op)) ] in
  let rest =
    match r.op with
    | Eval p -> [ ("point", Space.point_json p) ]
    | Sweep preset | Pareto preset -> [ ("preset", Json.Str preset) ]
    | Stats | Ping | Shutdown -> []
  in
  Json.Obj (base @ rest)

let request_of_json j =
  match Json.member "op" j with
  | Some (Json.Str op) -> (
      let id = match Json.member "id" j with Some (Json.Int i) -> i | _ -> 0 in
      let preset () =
        match Json.member "preset" j with
        | Some (Json.Str s) -> Ok s
        | _ -> Error (Printf.sprintf "%s: missing \"preset\"" op)
      in
      match op with
      | "eval" -> (
          match Json.member "point" j with
          | Some pj -> (
              match Space.point_of_json pj with
              | Ok p -> Ok { id; op = Eval p }
              | Error e -> Error ("eval: bad point: " ^ e))
          | None -> Error "eval: missing \"point\"")
      | "sweep" -> Result.map (fun s -> { id; op = Sweep s }) (preset ())
      | "pareto" -> Result.map (fun s -> { id; op = Pareto s }) (preset ())
      | "stats" -> Ok { id; op = Stats }
      | "ping" -> Ok { id; op = Ping }
      | "shutdown" -> Ok { id; op = Shutdown }
      | other -> Error (Printf.sprintf "unknown op %S" other))
  | Some _ -> Error "\"op\" is not a string"
  | None -> Error "missing \"op\""

let parse_request line =
  match Json.of_string line with
  | Error e -> Error ("malformed JSON: " ^ e)
  | Ok j -> request_of_json j

let err_to_json = function
  | Bad_request m ->
      Json.Obj [ ("kind", Json.Str "bad-request"); ("detail", Json.Str m) ]
  | Overloaded m ->
      Json.Obj [ ("kind", Json.Str "overloaded"); ("detail", Json.Str m) ]
  | Timeout m ->
      Json.Obj [ ("kind", Json.Str "timeout"); ("detail", Json.Str m) ]
  | Stage e ->
      Json.Obj [ ("kind", Json.Str "stage"); ("stage_error", Stage_error.to_json e) ]

let err_of_json j =
  let detail () =
    match Json.member "detail" j with Some (Json.Str s) -> s | _ -> ""
  in
  match Json.member "kind" j with
  | Some (Json.Str "overloaded") -> Overloaded (detail ())
  | Some (Json.Str "timeout") -> Timeout (detail ())
  | Some (Json.Str "stage") ->
      (* the client side needs the rendering, not the taxonomy: carry the
         payload as an opaque bad-request if it does not parse *)
      Bad_request (Json.to_string (Option.value ~default:Json.Null (Json.member "stage_error" j)))
  | _ -> Bad_request (detail ())

let err_to_string = function
  | Bad_request m -> "bad request: " ^ m
  | Overloaded m -> "overloaded: " ^ m
  | Timeout m -> "timeout: " ^ m
  | Stage e -> "stage error: " ^ Stage_error.to_string e

let response_to_json r =
  match r.body with
  | Ok result ->
      Json.Obj
        [ ("id", Json.Int r.r_id); ("ok", Json.Bool true); ("result", result) ]
  | Error e ->
      Json.Obj
        [ ("id", Json.Int r.r_id); ("ok", Json.Bool false); ("error", err_to_json e) ]

let response_of_json j =
  match (Json.member "id" j, Json.member "ok" j) with
  | Some (Json.Int id), Some (Json.Bool true) -> (
      match Json.member "result" j with
      | Some result -> Ok { r_id = id; body = Ok result }
      | None -> Error "ok response without \"result\"")
  | Some (Json.Int id), Some (Json.Bool false) -> (
      match Json.member "error" j with
      | Some e -> Ok { r_id = id; body = Error (err_of_json e) }
      | None -> Error "error response without \"error\"")
  | _ -> Error "response: missing \"id\"/\"ok\""

let render_response r = Json.to_string (response_to_json r)

let render_ok ~id doc =
  Json.rendered_obj [ ("id", string_of_int id); ("ok", "true"); ("result", doc) ]

(* --- addresses --- *)

type addr = Unix_sock of string | Tcp of string * int

let addr_of_string s =
  if String.contains s '/' then Ok (Unix_sock s)
  else
    match String.rindex_opt s ':' with
    | Some i -> (
        let host = String.sub s 0 i in
        let port = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port with
        | Some p when p > 0 && p < 65536 ->
            Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
        | _ -> Error (Printf.sprintf "bad port in %S" s))
    | None -> (
        match int_of_string_opt s with
        | Some p when p > 0 && p < 65536 -> Ok (Tcp ("127.0.0.1", p))
        | _ ->
            Error
              (Printf.sprintf
                 "%S: expected a socket path (with '/'), HOST:PORT, or PORT" s))

let addr_to_string = function
  | Unix_sock path -> path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

let sockaddr_of_addr = function
  | Unix_sock path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
      let ip =
        try (Unix.gethostbyname host).Unix.h_addr_list.(0)
        with Not_found | Invalid_argument _ -> Unix.inet_addr_loopback
      in
      Unix.ADDR_INET (ip, port)
