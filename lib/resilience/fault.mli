(** Deterministic fault injection at named flow sites.

    Follows the same ambient-policy idiom as [Gap_obs] and
    [Gap_netlist.Check]: with no plan armed, every {!point} /
    {!corrupt_float} call is a single word read and the flow's outputs are
    byte-identical to a build without the injector. Under {!with_plan} the
    named sites consult the plan and fail deterministically — a plan says
    {e which hit} of {e which site} fails, never a probability, so a
    campaign replays exactly from its spec (seeds only choose specs).

    Sites may be hit from worker domains (the DSE pool's workers hit
    [dse.worker]) and from daemon request threads; the armed state is
    mutex-protected. *)

type spec = {
  site : string;  (** catalog site name, e.g. ["place.sweep"] *)
  kind : Stage_error.fault_kind;
  skip : int;  (** let this many hits pass before injecting *)
  hits : int;  (** then inject on this many consecutive hits *)
}

val spec : ?skip:int -> ?hits:int -> string -> Stage_error.fault_kind -> spec
(** [skip] defaults to 0, [hits] to 1. *)

type report = {
  sites_hit : (string * int) list;  (** every site reached, with hit counts *)
  injected : (string * int) list;  (** sites where a fault actually fired *)
}

val catalog : (string * Stage_error.fault_kind list * string) list
(** Every registered injection site as [(site, applicable kinds,
    description)]. The fault campaign ([repro faults]) measures its
    coverage against this list: it fails unless some row injected every
    (site, kind) pair here. A site instrumented in the flow but missing
    here is never checked, so keep the two in sync. [repro faults --list]
    prints it verbatim. *)

val layer : string -> string
(** The site's owning layer: the prefix before the first ['.']
    (["segstore.append"] -> ["segstore"]). *)

val armed : unit -> bool

val point : string -> unit
(** A raise-style site. No-op unless a plan targeting [site] is armed with
    remaining hits, in which case it raises
    [Stage_error.Stage_failure (Injected { site; kind })]. Records the hit
    either way when armed. *)

val corrupt_float : string -> float -> float
(** A data-corruption site: identity unless an armed [Corrupt] spec has
    remaining hits, in which case it returns [nan]. *)

val with_plan : spec list -> (unit -> 'a) -> ('a, exn) result * report
(** Arm the plan for the duration of [f] (plans do not nest; the previous
    plan is restored on exit). Never re-raises: the result carries [f]'s
    value or the escaping exception, alongside the hit/injection report. *)
