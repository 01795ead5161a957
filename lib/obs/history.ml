(* Gap_obs.History — host meta and calibration for benchmark documents.

   The meta block says where and when a number was measured; the
   calibration loop is a fixed deterministic FP kernel timed best-of-5, a
   unitless "how fast is this host" number recorded next to it. *)

type meta = {
  host : string;
  domains : int;
  ocaml_version : string;
  timestamp : string; (* ISO-8601 UTC *)
}

let iso8601_now () =
  let t = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900)
    (t.Unix.tm_mon + 1) t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min
    t.Unix.tm_sec

let meta_now () =
  {
    host = (try Unix.gethostname () with Unix.Unix_error _ -> "unknown");
    domains = Domain.recommended_domain_count ();
    ocaml_version = Sys.ocaml_version;
    timestamp = iso8601_now ();
  }

let calibrate () =
  let best = ref infinity in
  for _ = 1 to 5 do
    let t0 = Obs.now_ns () in
    let acc = ref 0. in
    for i = 1 to 200_000 do
      acc := !acc +. sqrt (float_of_int i)
    done;
    ignore (Sys.opaque_identity !acc);
    let dt = Int64.to_float (Int64.sub (Obs.now_ns ()) t0) in
    if dt < !best then best := dt
  done;
  !best

let meta_json m =
  Json.Obj
    [
      ("host", Json.Str m.host);
      ("domains", Json.Int m.domains);
      ("ocaml_version", Json.Str m.ocaml_version);
      ("timestamp", Json.Str m.timestamp);
    ]
