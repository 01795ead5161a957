(* xoshiro256** state lives in a 4-word int64 Bigarray rather than four
   boxed [Int64.t] record fields: ocamlopt compiles int64 Bigarray loads,
   stores, and the arithmetic between them to fully unboxed code even
   without flambda, so the batched fill below — and the Monte Carlo shards
   built on it — run allocation-free. Boxed-state drawing used to cost ~20
   minor words per normal sample, and that steady churn forced
   stop-the-world minor collections across every domain of a parallel
   sweep. *)
type state = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  state : state;  (* xoshiro256** words s0..s3 *)
  mutable spare : float option; (* cached second Box-Muller output *)
}

let default_seed = 0x9E3779B97F4A7C15L

(* splitmix64: used only to expand a single seed into the four xoshiro words,
   as recommended by the xoshiro authors. *)
let splitmix64 state =
  let z = Int64.add !state 0x9E3779B97F4A7C15L in
  state := z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_seed seed =
  let st = ref seed in
  let state = Bigarray.Array1.create Bigarray.Int64 Bigarray.C_layout 4 in
  state.{0} <- splitmix64 st;
  state.{1} <- splitmix64 st;
  state.{2} <- splitmix64 st;
  state.{3} <- splitmix64 st;
  { state; spare = None }

let create ?(seed = default_seed) () = of_seed seed

let copy t =
  let state = Bigarray.Array1.create Bigarray.Int64 Bigarray.C_layout 4 in
  Bigarray.Array1.blit t.state state;
  { state; spare = t.spare }

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let int64 t =
  let s = t.state in
  let s1 = Bigarray.Array1.unsafe_get s 1 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let tmp = Int64.shift_left s1 17 in
  Bigarray.Array1.unsafe_set s 2
    (Int64.logxor (Bigarray.Array1.unsafe_get s 2) (Bigarray.Array1.unsafe_get s 0));
  Bigarray.Array1.unsafe_set s 3
    (Int64.logxor (Bigarray.Array1.unsafe_get s 3) s1);
  Bigarray.Array1.unsafe_set s 1
    (Int64.logxor s1 (Bigarray.Array1.unsafe_get s 2));
  Bigarray.Array1.unsafe_set s 0
    (Int64.logxor (Bigarray.Array1.unsafe_get s 0) (Bigarray.Array1.unsafe_get s 3));
  Bigarray.Array1.unsafe_set s 2
    (Int64.logxor (Bigarray.Array1.unsafe_get s 2) tmp);
  Bigarray.Array1.unsafe_set s 3 (rotl (Bigarray.Array1.unsafe_get s 3) 45);
  result

let split t = of_seed (int64 t)
let bits30 t = Int64.to_int (Int64.shift_right_logical (int64 t) 34)

let int t n =
  assert (n > 0);
  if n land (n - 1) = 0 then bits30 t land (n - 1)
  else begin
    (* rejection sampling to avoid modulo bias *)
    let rec draw () =
      let v = bits30 t in
      let bound = (1 lsl 30) - ((1 lsl 30) mod n) in
      if v < bound then v mod n else draw ()
    in
    draw ()
  end

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

(* 53 uniform bits mapped to [0,1) *)
let unit_float t =
  let bits = Int64.to_float (Int64.shift_right_logical (int64 t) 11) in
  bits *. 0x1p-53

let float t x = unit_float t *. x
let float_in t lo hi = lo +. (unit_float t *. (hi -. lo))
let bool t = Int64.logand (int64 t) 1L = 1L

let normal t ~mean ~sigma =
  match t.spare with
  | Some z ->
      t.spare <- None;
      mean +. (sigma *. z)
  | None ->
      let rec pair () =
        let u = unit_float t in
        if u <= 1e-300 then pair () else (u, unit_float t)
      in
      let u1, u2 = pair () in
      let r = sqrt (-2.0 *. log u1) in
      let theta = 2.0 *. Float.pi *. u2 in
      t.spare <- Some (r *. sin theta);
      mean +. (sigma *. (r *. cos theta))

let lognormal t ~mu ~sigma = exp (normal t ~mean:mu ~sigma)

(* vanishingly rare (u <= 1e-300): keep the retry off the unboxed fast path *)
let rec u_nonzero t =
  let u = unit_float t in
  if u <= 1e-300 then u_nonzero t else u

(* Batched standard normals: exactly the stream [normal ~mean:0 ~sigma:1]
   would produce call by call (including the cached spare at entry and
   exit), but with the generator and the Box-Muller transform inlined into
   one loop over the unboxed Bigarray state, so the whole fill allocates
   nothing — Monte Carlo runs on concurrent DSE pool domains never trigger
   a stop-the-world minor collection. *)
let normal_std_fill t buf ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length buf then
    invalid_arg
      (Printf.sprintf "Gap_util.Rng.normal_std_fill: range [%d,%d) outside buffer of %d"
         pos (pos + len) (Array.length buf));
  let i = ref pos in
  let stop = pos + len in
  (match t.spare with
  | Some z when !i < stop ->
      t.spare <- None;
      buf.(!i) <- z;
      incr i
  | _ -> ());
  let s = t.state in
  while stop - !i >= 2 do
    (* u1 — hand-inlined [unit_float] (a function call would re-box the
       result in this non-flambda build) *)
    let s1 = Bigarray.Array1.unsafe_get s 1 in
    let r1 = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
    let tmp = Int64.shift_left s1 17 in
    Bigarray.Array1.unsafe_set s 2
      (Int64.logxor (Bigarray.Array1.unsafe_get s 2) (Bigarray.Array1.unsafe_get s 0));
    Bigarray.Array1.unsafe_set s 3
      (Int64.logxor (Bigarray.Array1.unsafe_get s 3) s1);
    Bigarray.Array1.unsafe_set s 1
      (Int64.logxor s1 (Bigarray.Array1.unsafe_get s 2));
    Bigarray.Array1.unsafe_set s 0
      (Int64.logxor (Bigarray.Array1.unsafe_get s 0) (Bigarray.Array1.unsafe_get s 3));
    Bigarray.Array1.unsafe_set s 2
      (Int64.logxor (Bigarray.Array1.unsafe_get s 2) tmp);
    Bigarray.Array1.unsafe_set s 3 (rotl (Bigarray.Array1.unsafe_get s 3) 45);
    let u = Int64.to_float (Int64.shift_right_logical r1 11) *. 0x1p-53 in
    let u1 = if u > 1e-300 then u else u_nonzero t in
    (* u2 *)
    let s1 = Bigarray.Array1.unsafe_get s 1 in
    let r2 = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
    let tmp = Int64.shift_left s1 17 in
    Bigarray.Array1.unsafe_set s 2
      (Int64.logxor (Bigarray.Array1.unsafe_get s 2) (Bigarray.Array1.unsafe_get s 0));
    Bigarray.Array1.unsafe_set s 3
      (Int64.logxor (Bigarray.Array1.unsafe_get s 3) s1);
    Bigarray.Array1.unsafe_set s 1
      (Int64.logxor s1 (Bigarray.Array1.unsafe_get s 2));
    Bigarray.Array1.unsafe_set s 0
      (Int64.logxor (Bigarray.Array1.unsafe_get s 0) (Bigarray.Array1.unsafe_get s 3));
    Bigarray.Array1.unsafe_set s 2
      (Int64.logxor (Bigarray.Array1.unsafe_get s 2) tmp);
    Bigarray.Array1.unsafe_set s 3 (rotl (Bigarray.Array1.unsafe_get s 3) 45);
    let u2 = Int64.to_float (Int64.shift_right_logical r2 11) *. 0x1p-53 in
    let r = sqrt (-2.0 *. log u1) in
    let theta = 2.0 *. Float.pi *. u2 in
    Array.unsafe_set buf !i (r *. cos theta);
    Array.unsafe_set buf (!i + 1) (r *. sin theta);
    i := !i + 2
  done;
  if !i < stop then begin
    (* odd tail: runs at most once per fill, the scalar path is fine *)
    let u1 = u_nonzero t in
    let u2 = unit_float t in
    let r = sqrt (-2.0 *. log u1) in
    let theta = 2.0 *. Float.pi *. u2 in
    buf.(!i) <- r *. cos theta;
    t.spare <- Some (r *. sin theta)
  end

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))
