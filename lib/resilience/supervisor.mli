(** Supervised stage execution: retries and typed outcomes.

    Two entry points:

    - {!retry} is recovery-transparent: it re-runs a stage whose failure is
      {!Stage_error.retryable}, with deterministic exponential backoff
      (recorded, never slept — the flow is CPU-bound and campaigns must be
      fast and reproducible), and raises a typed
      [Stage_error.Stage_failure] when the budget runs out. Untyped
      exceptions that no classifier recognises propagate unchanged so real
      bugs are not masked.
    - {!run_stage} never raises: it converts whatever escapes the stage into
      a {!Stage_error.t} and returns a structured {!outcome}, so a driver
      (e.g. [repro all]) can report partial results instead of dying on the
      first error.

    Both record [resilience.*] counters and events through [Gap_obs]. *)

type policy = {
  max_retries : int;  (** retries after the first attempt *)
  backoff_base_ns : int64;
      (** attempt [k] is charged [backoff_base_ns * 2^k]; recorded in the
          attempt log and the [resilience.backoff_ns] counter *)
}

val default_policy : policy
(** 2 retries, 1 ms base backoff. *)

val no_retry : policy

type attempt = { number : int; error : Stage_error.t; backoff_ns : int64 }

type 'a outcome = {
  stage : string;
  result : ('a, Stage_error.t) result;
  attempts : attempt list;  (** failed attempts, in execution order *)
}

val recovered : 'a outcome -> bool
(** Succeeded, but only after at least one failed attempt. *)

val retry : ?policy:policy -> stage:string -> (unit -> 'a) -> 'a
val run_stage : ?policy:policy -> stage:string -> (unit -> 'a) -> 'a outcome

val supervised : unit -> bool
(** True inside {!retry} / {!run_stage}; numeric guards arm only then so an
    unsupervised flow stays byte-identical to pre-resilience behavior. *)

val guard_finite : stage:string -> what:string -> float -> float
(** Identity when unsupervised or finite; otherwise raises
    [Stage_failure (Numeric_fault _)]. *)

val attempt_json : attempt -> Gap_obs.Json.t
