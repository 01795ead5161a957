(** The unified error taxonomy for flow stages.

    Every way a stage of the flow (synthesis, placement, STA, Monte Carlo
    variation) can fail is a constructor of {!t}, carrying the owning stage
    and a concrete payload, instead of a bare exception somewhere deep in a
    kernel. The {!Supervisor} converts exceptions escaping a supervised
    stage into these values via {!of_exn}; layers that own richer exception
    types (e.g. [Gap_netlist.Check.Gate_failed]) teach the classifier about
    them with {!register_classifier}. *)

type fault_kind =
  | Transient  (** fails a bounded number of times, then succeeds: retry *)
  | Corrupt  (** silently corrupts a numeric value (NaN): detect + reject *)
  | Worker_kill  (** kills a worker domain: rejoin + fall back *)

type t =
  | Netlist_defect of { stage : string; rule : string; detail : string }
      (** a design-rule violation surfaced at a stage boundary *)
  | Numeric_fault of { stage : string; what : string; value : float }
      (** a NaN/infinite quantity where a finite one is required *)
  | Injected of { site : string; kind : fault_kind }
      (** a fault deliberately raised by {!Fault} at a named site *)
  | Storage_fault of {
      stage : string;
      store : string;
      segment : string;
      offset : int;
      detail : string;
    }
      (** a persistent store failed validation: corruption before the
          recoverable tail, a malformed manifest, or an I/O failure.
          [segment] is [""] when the defect is not segment-local. *)
  | Exhausted_retries of { stage : string; attempts : int; last : t }
      (** the retry budget ran out; [last] is the final attempt's error *)
  | Interrupted of { stage : string }
      (** a campaign was cut short; resume from the last checkpoint *)
  | Unclassified of { stage : string; exn_text : string }
      (** an exception no classifier recognised *)

exception Stage_failure of t
(** The one exception resilient code raises and supervisors catch. A
    registered printer renders the payload via {!to_string}. *)

val stage : t -> string
(** The owning stage or fault site. *)

val kind_string : fault_kind -> string
(** ["transient"] / ["corrupt"] / ["worker-kill"]. *)

val retryable : t -> bool
(** Whether re-running the stage can plausibly succeed: true for
    [Injected Transient], false for everything else (corruption persists,
    defects need a different remedy). *)

val to_string : t -> string
val to_json : t -> Gap_obs.Json.t

val register_classifier : (stage:string -> exn -> t option) -> unit
(** Teach {!of_exn} about a library-specific exception. Classifiers run in
    registration order; the first [Some] wins. *)

val of_exn : stage:string -> exn -> t
(** [Stage_failure e] maps to [e]; otherwise the registered classifiers are
    consulted; otherwise [Unclassified] with [Printexc.to_string]. *)
