type sigmas = { lot : float; wafer : float; die : float; intra : float }

let mature = { lot = 0.035; wafer = 0.025; die = 0.04; intra = 0.03 }
let new_process = { lot = 0.05; wafer = 0.035; die = 0.06; intra = 0.045 }

let total_sigma s = sqrt ((s.lot *. s.lot) +. (s.wafer *. s.wafer) +. (s.die *. s.die))

type t = { sigmas : sigmas; fab_mean : float }

let make ?(fab_mean = 1.0) sigmas = { sigmas; fab_mean }

let sample_speed_factor t rng =
  let s = t.sigmas in
  let g sigma = Gap_util.Rng.normal rng ~mean:0. ~sigma in
  let dtd = 1. +. g s.lot +. g s.wafer +. g s.die in
  let intra_penalty = Float.abs (g s.intra) in
  Float.max 0.05 (t.fab_mean *. dtd *. (1. -. intra_penalty))

(* one die consumes four standard normals: lot, wafer, die, intra *)
let draws_per_die = 4

let fill_fmax t ~z ~out ~pos ~len ~nominal_mhz =
  if len < 0 || draws_per_die * len > Gap_util.Stats.buf_length z then
    invalid_arg
      (Printf.sprintf "Gap_variation.Model.fill_fmax: z holds %d of %d draws"
         (Gap_util.Stats.buf_length z) (draws_per_die * len));
  if pos < 0 || pos + len > Gap_util.Stats.buf_length out then
    invalid_arg "Gap_variation.Model.fill_fmax: range outside output buffer";
  let s = t.sigmas in
  for i = 0 to len - 1 do
    let base = draws_per_die * i in
    (* draw order matches [sample_speed_factor]: its [+.] operands evaluate
       right to left, so the stream yields die, wafer, lot, then intra *)
    let zd = Bigarray.Array1.unsafe_get z base in
    let zw = Bigarray.Array1.unsafe_get z (base + 1) in
    let zl = Bigarray.Array1.unsafe_get z (base + 2) in
    let zi = Bigarray.Array1.unsafe_get z (base + 3) in
    let dtd = 1. +. (s.lot *. zl) +. (s.wafer *. zw) +. (s.die *. zd) in
    let intra_penalty = Float.abs (s.intra *. zi) in
    let f = Float.max 0.05 (t.fab_mean *. dtd *. (1. -. intra_penalty)) in
    Bigarray.Array1.unsafe_set out (pos + i) (nominal_mhz *. f)
  done

let best_fab = 1.05
let typical_fab = 1.0
let slow_fab = 0.85
let voltage_temp_derate = 0.85
let worst_case_sigma_count = 3.0

let signoff_speed t =
  t.fab_mean *. (1. -. (worst_case_sigma_count *. total_sigma t.sigmas)) *. voltage_temp_derate
