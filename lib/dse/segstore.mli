(** Append-only checksummed segment store: the crash-only persistence layer
    under {!Cache}.

    A store is a {e directory} holding a [MANIFEST] (strict JSON, written
    only through [Gap_util.Atomic_io]) and the segment files of the current
    generation. Every record is framed as

    {v magic 0xA5 | u32-LE payload length | u32-LE CRC-32 | payload v}

    where the payload carries a length-prefixed key followed by opaque
    record bytes, and each append is a single [O_APPEND] write — a kill
    mid-append leaves a strict prefix of the record, never interleaved
    garbage.

    Recovery on open scans every listed segment in order:

    - a record that runs past the end of the {e last} segment, or a
      defective {e final} record of the last segment, is a torn tail: it is
      truncated away and reported as a note (the store stays valid);
    - any defect {e before} the tail — bad magic, bad CRC, a tear in a
      non-final segment — is real corruption and raises a typed
      [Stage_error.Storage_fault] naming the segment and byte offset.

    Compaction ({!rewrite}) writes the surviving records into a fresh
    generation via temp-file + rename and then atomically replaces the
    MANIFEST, so a kill at any instant leaves either the old or the new
    generation fully valid; stray files from interrupted compactions are
    swept on the next open.

    Appends and compactions pass the [segstore.append] / [segstore.compact]
    fault sites and feed [dse.segstore.*] counters through [Gap_obs]. Not
    domain-safe (same contract as {!Cache}). *)

type t

val open_store :
  ?segment_bytes:int ->
  flow:string ->
  string ->
  t * (string * string) list * string option
(** Open (creating if missing) and recover the store at a directory path.
    Returns the handle, the surviving records as [(key, payload)] in append
    order (duplicate keys included — callers apply last-wins), and the
    recovery note when a torn tail was truncated. A manifest whose recorded
    flow differs from [flow] returns no records (stale results are
    invisible) and the store is reset to an empty generation at the current
    flow on the first write. [segment_bytes] (default 256 KiB) bounds a
    segment before appends roll to a new one.

    @raise Gap_resilience.Stage_error.Stage_failure ([Storage_fault]) on
    pre-tail corruption, a malformed manifest, or an I/O failure. *)

val append : t -> key:string -> string -> unit
(** Append one record with a single [O_APPEND] write, rolling to a new
    segment past the size bound. Passes the [segstore.append] fault site
    before touching the file, so an injected fault never half-writes. *)

val rewrite : t -> (string * string) list -> unit
(** Compact: replace the store's contents with exactly [records] in a fresh
    generation (old segments are deleted only after the new MANIFEST is in
    place). Passes the [segstore.compact] fault site first. *)

val records : t -> int
(** Records in the current generation, loaded plus appended — minus nothing:
    superseded duplicates still count until a {!rewrite} drops them. *)

val generation : t -> int

val segment_names : t -> string list
(** Current generation's segment files, in manifest order. *)

val stale : t -> bool
(** The manifest's flow differed at open and no write has reset it yet. *)

val close : t -> unit

(** {1 Inspection} *)

type info = {
  i_records : int;
  i_keys : int;  (** distinct keys among the surviving records *)
  i_segments : int;
  i_generation : int;
  i_flow : string;
  i_bytes : int;  (** total segment bytes *)
  i_torn : string option;
      (** the note a recovering open would report, without truncating *)
}

val validate : string -> (info, Gap_resilience.Stage_error.t) result
(** Read-only full scan of the store at a directory path: every record of
    every listed segment is re-framed and re-checksummed. Never writes —
    a torn tail is reported in [i_torn], corruption as [Error]. *)

val is_store : string -> bool
(** The path is a directory containing a MANIFEST. *)

val manifest_name : string
(** ["MANIFEST"] — exposed for the tests' file surgery. *)
