(** Wire protocol for the [repro serve] evaluation daemon.

    Framing is JSONL: one request object per line in, one response object
    per line out, matched by the caller-chosen [id]. Requests ride
    {!Gap_obs.Json}, so the daemon shares the flow's only JSON dialect and
    an eval response body is byte-identical to what the CLI's own
    [Eval.to_json] emits for the same point.

    Request: [{"id": N, "op": "eval", "point": {...}}],
    [{"id": N, "op": "sweep" | "pareto", "preset": "smoke"}],
    [{"id": N, "op": "stats" | "ping" | "shutdown"}].

    Response: [{"id": N, "ok": true, "result": ...}] or
    [{"id": N, "ok": false, "error": {"kind": ..., ...}}]. *)

module Json = Gap_obs.Json

type op =
  | Eval of Gap_dse.Space.point
  | Sweep of string  (** preset name *)
  | Pareto of string  (** preset name *)
  | Stats
  | Ping
  | Shutdown

type request = { id : int; op : op }

type err =
  | Bad_request of string
      (** unparsable line, unknown op, malformed point — the connection
          survives; only this request fails *)
  | Overloaded of string
      (** the daemon is shutting down or refused to queue the work *)
  | Timeout of string
      (** the connection sat idle past the daemon's deadline and is being
          evicted; sent best-effort before the socket closes *)
  | Stage of Gap_resilience.Stage_error.t
      (** a poisoned evaluation: the supervised stage's typed error *)

type response = { r_id : int; body : (Json.t, err) result }

val op_name : op -> string
(** ["eval"], ["sweep"], ... — the wire spelling. *)

val request_to_json : request -> Json.t
val request_of_json : Json.t -> (request, string) result
val parse_request : string -> (request, string) result
(** One JSONL line to a request. *)

val err_to_json : err -> Json.t
val err_of_json : Json.t -> err
val err_to_string : err -> string

val response_to_json : response -> Json.t
val response_of_json : Json.t -> (response, string) result
val render_response : response -> string
(** One JSONL line (no trailing newline). *)

val render_ok : id:int -> string -> string
(** [render_ok ~id doc] is the success line
    [{"id":N,"ok":true,"result":DOC}] around a result that is already
    rendered. When [doc = Json.to_string j] it is byte-identical to
    [render_response {r_id = id; body = Ok j}]: it writes the same fields
    in the same order through {!Gap_obs.Json.rendered_obj}, the renderer's
    own object syntax, with the id rendered as an [Int] is. The daemon
    answers an eval with it from the document its cache keeps, rendering
    nothing per request. *)

(** {1 Addresses} *)

type addr =
  | Unix_sock of string  (** filesystem path *)
  | Tcp of string * int  (** host, port *)

val addr_of_string : string -> (addr, string) result
(** ["/path/to.sock"] (any string containing ['/']) is a Unix-domain
    socket; ["HOST:PORT"] and bare ["PORT"] (loopback) are TCP. *)

val addr_to_string : addr -> string
val sockaddr_of_addr : addr -> Unix.sockaddr
