module Obs = Gap_obs.Obs
module Json = Gap_obs.Json

type policy = { max_retries : int; backoff_base_ns : int64 }

let default_policy = { max_retries = 2; backoff_base_ns = 1_000_000L }
let no_retry = { max_retries = 0; backoff_base_ns = 0L }

type attempt = { number : int; error : Stage_error.t; backoff_ns : int64 }

type 'a outcome = {
  stage : string;
  result : ('a, Stage_error.t) result;
  attempts : attempt list;
}

let recovered o = Result.is_ok o.result && o.attempts <> []

(* supervision depth: guards arm only when a supervisor is on the stack *)
let depth = ref 0
let supervised () = !depth > 0

let supervise f =
  incr depth;
  Fun.protect ~finally:(fun () -> decr depth) f

let guard_finite ~stage ~what v =
  if !depth > 0 && not (Float.is_finite v) then
    raise
      (Stage_error.Stage_failure (Stage_error.Numeric_fault { stage; what; value = v }));
  v

let attempt_json a =
  Json.Obj
    [
      ("attempt", Json.Int a.number);
      ("error", Stage_error.to_json a.error);
      ("backoff_ns", Json.Int (Int64.to_int a.backoff_ns));
    ]

(* the shared retry loop: [on_give_up] decides what the final failure
   becomes (raise for [retry], a value for [run_stage]) *)
let run_attempts ~policy ~stage ~on_give_up f =
  supervise (fun () ->
      let rec go number acc =
        match f () with
        | v ->
            if acc <> [] then begin
              Obs.incr "resilience.recovered";
              Obs.event "resilience.recover"
                [ ("stage", Json.Str stage); ("attempts", Json.Int (number + 1)) ]
            end;
            Ok (v, List.rev acc)
        | exception e ->
            let err = Stage_error.of_exn ~stage e in
            if number < policy.max_retries && Stage_error.retryable err then begin
              let backoff_ns =
                Int64.shift_left policy.backoff_base_ns number
              in
              Obs.incr "resilience.retries";
              Obs.incr ~by:(Int64.to_int backoff_ns) "resilience.backoff_ns";
              Obs.event "resilience.retry"
                [
                  ("stage", Json.Str stage);
                  ("attempt", Json.Int number);
                  ("error", Json.Str (Stage_error.to_string err));
                  ("backoff_ns", Json.Int (Int64.to_int backoff_ns));
                ];
              go (number + 1) ({ number; error = err; backoff_ns } :: acc)
            end
            else begin
              Obs.incr "resilience.failures";
              on_give_up ~original:e ~err ~attempts:(List.rev acc) ~number
            end
      in
      go 0 [])

let retry ?(policy = default_policy) ~stage f =
  let res =
    run_attempts ~policy ~stage f ~on_give_up:(fun ~original ~err ~attempts ~number ->
        match (attempts, original) with
        | [], Stage_error.Stage_failure _ -> raise original
        | [], _ when (match err with Stage_error.Unclassified _ -> true | _ -> false)
          ->
            (* nobody recognises it and we never retried: not ours to wrap *)
            raise original
        | [], _ -> raise (Stage_error.Stage_failure err)
        | _ ->
            raise
              (Stage_error.Stage_failure
                 (Stage_error.Exhausted_retries
                    { stage; attempts = number + 1; last = err })))
  in
  match res with Ok (v, _) -> v | Error _ -> assert false

let run_stage ?(policy = default_policy) ~stage f =
  match
    run_attempts ~policy ~stage f ~on_give_up:(fun ~original:_ ~err ~attempts ~number ->
        let final =
          if attempts = [] then err
          else Stage_error.Exhausted_retries { stage; attempts = number + 1; last = err }
        in
        Error (final, attempts))
  with
  | Ok (v, attempts) -> { stage; result = Ok v; attempts }
  | Error (err, attempts) -> { stage; result = Error err; attempts }
