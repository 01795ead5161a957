(** Supervised experiment campaigns: per-experiment isolation,
    checkpoint/resume, and the deterministic fault-injection campaign.

    This module is the engine behind [repro all --checkpoint], [repro
    resume] and [repro faults]; it lives in the library (not the CLI) so
    the property tests can drive kill+resume in process. *)

(** {1 Checkpointed experiment runs} *)

type exp_record = {
  id : string;
  title : string;
  render : string;  (** the experiment's full rendered report *)
  pass : int;
  checkable : int;
}

type run_outcome =
  | Done of exp_record
  | Failed of string * Gap_resilience.Stage_error.t
      (** experiment id and the typed reason *)

val run_experiments :
  ?checkpoint:string ->
  ?stop_after:int ->
  ids:string list ->
  unit ->
  run_outcome list
(** Run the experiments in order, each under a {!Gap_resilience.Supervisor}
    stage so one failure cannot kill the campaign. With [?checkpoint] the
    campaign state is atomically rewritten after every completed experiment
    (failures are not recorded, so a resume retries them). [?stop_after]
    ends the run after that many fresh experiments — the test-suite
    stand-in for a kill.

    @raise Failure on an unknown experiment id. *)

val resume_experiments :
  checkpoint:string -> ?stop_after:int -> unit -> run_outcome list
(** Reload a checkpoint and continue its campaign: completed experiments
    are replayed from their recorded renders (byte-identical, since every
    experiment is deterministic), the rest run fresh, and the checkpoint
    keeps advancing.

    @raise Failure if the checkpoint is missing, malformed, of the wrong
    version, or not an experiment campaign. *)

val output : run_outcome list -> string
(** The byte stream [repro all] prints: every report in order (failed
    experiments render as a typed FAILED block), a blank line, then the
    summary table. For an all-[Done] list this is byte-identical to the
    pre-resilience output. *)

val all_passed : run_outcome list -> bool
(** No [Failed] outcome and every row of every experiment in range. *)

(** {1 The fault campaign}

    One scenario table covers the flow and the daemon. A row arms zero or
    more (site, kind) pairs of {!Gap_resilience.Fault.catalog} and runs its
    body: a small flow driver under a supervisor (synthesis, placement,
    a gated annotate+STA, the FPGA backend), or a daemon or store wrecked
    on purpose (SIGKILL mid-workload, armed [segstore]/[serve]/[dse] sites,
    vanishing, stalling and flooding clients) followed by its checks —
    where it keeps a store, the crash-only ones: the store validates and a
    warm restart answers byte-identically to a never-killed evaluator.
    Coverage is measured, not declared: a catalog pair no row injected
    fails the gate. *)

type fault_outcome =
  | Passed  (** an unarmed row: every check ran and held *)
  | Recovered  (** the supervisor retried the stage and it completed *)
  | Degraded
      (** a fallback path absorbed the fault (best-so-far placement,
          orphaned pool slots re-run) *)
  | Failed_typed of Gap_resilience.Stage_error.t
      (** the driver failed, but with a typed diagnostic — acceptable *)
  | Silent  (** the fault fired yet nothing recovered or complained — a bug *)
  | Uncaught of string  (** an exception escaped the row — a bug *)
  | Not_exercised
      (** an armed pair was never injected, or an unarmed row ran no
          check — a campaign bug *)
  | Check_failed of string  (** one of the row's assertions failed — a bug *)

type arm = {
  site : string;
  kind : Gap_resilience.Stage_error.fault_kind;
  skip : int;  (** hits let pass before the injection, drawn from the seed *)
  hits : int;  (** times the row reached the site *)
  injected : int;  (** faults actually fired *)
}

type row_result = {
  row : string;
  arms : arm list;  (** empty for a row that arms no site *)
  checks : int;  (** assertions that ran (and held, unless [Check_failed]) *)
  retries : int;  (** supervisor retries recorded during the row *)
  degraded : int;  (** degradation events recorded during the row *)
  outcome : fault_outcome;
}

val outcome_string : fault_outcome -> string

val outcome_detail : fault_outcome -> string
(** {!outcome_string} plus the error or failed check, if any. *)

val outcome_ok : fault_outcome -> bool
(** [Passed], [Recovered], [Degraded] or [Failed_typed]. *)

val run_faults : ?seed:int64 -> unit -> row_result list
(** Run every row in table order, each under its own fault plan and
    telemetry recorder. [seed] (default 2027) picks each armed spec's
    [skip] within the row's bound, so faults land mid-run, not only at the
    first hit. Forks once (the first row), so call it before the process
    spawns a domain. Never raises: damage is confined to scratch
    directories and in-process daemons. *)

val uncovered :
  row_result list -> (string * Gap_resilience.Stage_error.fault_kind) list
(** Catalog (site, kind) pairs that no row injected. *)

val faults_ok : row_result list -> bool
(** Every row's outcome is acceptable and every catalog pair was
    injected. *)

val faults_json : seed:int64 -> row_result list -> Gap_obs.Json.t
(** The [FAULTS_report.json] document: per-row results, injections per
    catalog pair, totals and the [ok] gate. *)

val faults_table : row_result list -> string
(** Human-readable table, one line per row. *)
