(** Blocking JSONL client for the [repro serve] daemon.

    One connection, one outstanding request at a time: the daemon answers a
    connection's requests in order, so a request is a write of one line and
    a read of one line. Concurrency comes from opening more clients, one
    per thread. Not thread-safe; share nothing. *)

type t

val connect : Protocol.addr -> t
(** @raise Unix.Unix_error when nothing listens there. *)

type connect_error =
  | Connect_timeout of {
      addr : string;
      attempts : int;  (** connect attempts made, including the last *)
      elapsed_s : float;
      last_error : string;  (** rendered errno of the final failure *)
    }

val connect_error_to_string : connect_error -> string

val connect_retry :
  ?base_delay_s:float ->
  ?deadline_s:float ->
  Protocol.addr ->
  (t, connect_error) result
(** Retry [connect] under deterministic exponential backoff — attempt [k]
    waits [min 0.5 (base_delay_s * 2^k)] seconds ([base_delay_s] defaults
    to 0.01) — until the total [deadline_s] budget (default 5s) runs out,
    then a typed {!Connect_timeout}. For racing a daemon that is still
    binding its socket. *)

val request : t -> Protocol.op -> (Protocol.Json.t, Protocol.err) result
(** Send one request (ids are assigned internally) and block for its
    response. Protocol violations — unparsable line, id mismatch, closed
    socket — surface as [Error (Bad_request _)]. *)

val eval : t -> Gap_dse.Space.point -> (Protocol.Json.t, Protocol.err) result
val ping : t -> bool
val shutdown : t -> unit
(** Fire a shutdown request; the response (or a closed socket) is
    absorbed. *)

val raw_roundtrip : t -> string -> (string, string) result
(** Send an arbitrary line verbatim and read one response line — for
    protocol-abuse tests. *)

val send_line : t -> string -> unit
(** Send one line without reading a response — for the fault campaign's
    clients that hang up mid-request. *)

val send_raw : t -> string -> unit
(** Send bytes with no newline — an unterminated request for the same
    scenarios. *)

val close : t -> unit
