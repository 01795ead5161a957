(** Minimal JSON: a value type, a renderer, and a strict parser. Kept
    dependency-free so every layer of the flow can stream traces and metrics
    documents without pulling in a JSON package. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?pretty:bool -> t -> string
(** Compact single-line rendering by default; [~pretty:true] indents by two
    spaces. NaN and infinities render as [null] (JSON cannot spell them);
    integral floats keep a [".0"] so they re-parse as [Float]. For any value
    free of NaN/infinity, [of_string (to_string v) = Ok v]. *)

val rendered_obj : (string * string) list -> string
(** An object around values that are already rendered:
    [rendered_obj [(k1, s1); ...]] is [to_string (Obj [(k1, v1); ...])],
    byte for byte, when each [si = to_string vi]. A document rendered once
    can so be written inside several others without a second rendering. *)

val of_string : string -> (t, string) result
(** Strict parse of a complete JSON document (trailing garbage is an error).
    Handles the full escape set including surrogate pairs (decoded to
    UTF-8). *)

val member : string -> t -> t option
(** [member k (Obj kvs)] is the value bound to [k]; [None] for other
    constructors or a missing key. *)

val float_repr : float -> string
(** The rendering used for [Float]: [%.12g] when that reads back to the same
    float, [%.17g] otherwise, with [".0"] appended to an integral form;
    ["null"] for NaN and infinities. It calls the C primitive behind
    [Printf]'s [%g] directly, so the bytes are [Printf.sprintf]'s. *)
