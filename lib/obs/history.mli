(** Host meta and calibration for benchmark documents.

    Every document the end-to-end benchmark writes ([bench/e2e]) carries a
    [meta] block naming the host, its domain count, the OCaml version and
    the time of the run, plus a calibration number: a fixed deterministic
    FP kernel timed best-of-5, so two documents from different hosts or
    days can be read against how fast each host was at the time. *)

type meta = {
  host : string;
  domains : int;  (** [Domain.recommended_domain_count] at record time *)
  ocaml_version : string;
  timestamp : string;  (** ISO-8601 UTC *)
}

val meta_now : unit -> meta

val calibrate : unit -> float
(** Time a fixed deterministic FP kernel, best-of-5 — a unitless "how
    fast is this host" number, in ns. *)

val meta_json : meta -> Json.t
