type running = {
  mutable n : int;
  mutable mu : float;
  mutable m2 : float;
  mutable lo : float;
  mutable hi : float;
}

let running () = { n = 0; mu = 0.; m2 = 0.; lo = infinity; hi = neg_infinity }

let add r x =
  r.n <- r.n + 1;
  let delta = x -. r.mu in
  r.mu <- r.mu +. (delta /. float_of_int r.n);
  r.m2 <- r.m2 +. (delta *. (x -. r.mu));
  if x < r.lo then r.lo <- x;
  if x > r.hi then r.hi <- x

let count r = r.n
let mean r = r.mu
let variance r = if r.n < 2 then 0. else r.m2 /. float_of_int (r.n - 1)
let stddev r = sqrt (variance r)
let running_min r = r.lo
let running_max r = r.hi

(* Input guards raise [Invalid_argument] naming the offending function:
   [assert] would vanish under -noassert and let the fold below return
   garbage (0/0, out-of-bounds interpolation) instead of failing. *)
let require_nonempty fn xs =
  if Array.length xs = 0 then invalid_arg (fn ^ ": empty sample")

let mean_of xs =
  require_nonempty "Gap_util.Stats.mean_of" xs;
  Array.fold_left ( +. ) 0. xs /. float_of_int (Array.length xs)

let stddev_of xs =
  require_nonempty "Gap_util.Stats.stddev_of" xs;
  let r = running () in
  Array.iter (add r) xs;
  stddev r

let percentile_sorted sorted p =
  require_nonempty "Gap_util.Stats.percentile_sorted" sorted;
  if not (p >= 0. && p <= 100.) then
    invalid_arg
      (Printf.sprintf "Gap_util.Stats.percentile_sorted: percentile %g not in [0,100]" p);
  let n = Array.length sorted in
  if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end

let percentile xs p =
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  percentile_sorted sorted p

let median xs = percentile xs 50.
let minimum xs = Array.fold_left min infinity xs
let maximum xs = Array.fold_left max neg_infinity xs

let histogram ?(bins = 20) xs =
  if bins <= 0 then
    invalid_arg (Printf.sprintf "Gap_util.Stats.histogram: bins = %d (must be positive)" bins);
  require_nonempty "Gap_util.Stats.histogram" xs;
  let lo = minimum xs and hi = maximum xs in
  let width = if hi > lo then (hi -. lo) /. float_of_int bins else 1. in
  let counts = Array.make bins 0 in
  let index x =
    let i = int_of_float ((x -. lo) /. width) in
    if i >= bins then bins - 1 else if i < 0 then 0 else i
  in
  Array.iter (fun x -> counts.(index x) <- counts.(index x) + 1) xs;
  Array.mapi
    (fun i c ->
      let l = lo +. (float_of_int i *. width) in
      (l, l +. width, c))
    counts

(* --- unboxed sample buffers ---

   Monte Carlo workloads sample millions of float64 values; a Bigarray
   buffer keeps them as flat unboxed memory that the GC never scans or
   moves. Order statistics never reorder the buffer. A rank within [n/32] of
   either end is read in one pass that keeps that tail in a bounded binary
   heap; any other rank runs quickselect on a copy. Both paths load every
   sample, and a NaN, which has no place in an ascending order, is
   rejected wherever it sits. *)

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let buf_create n = Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout n
let buf_length (b : buf) = Bigarray.Array1.dim b

let buf_of_array a : buf =
  Bigarray.Array1.of_array Bigarray.Float64 Bigarray.C_layout a

let buf_to_array (b : buf) = Array.init (buf_length b) (Bigarray.Array1.get b)

let buf_copy (b : buf) =
  let c = buf_create (buf_length b) in
  Bigarray.Array1.blit b c;
  c

let require_buf_nonempty fn (b : buf) =
  if buf_length b = 0 then invalid_arg (fn ^ ": empty sample")

let buf_mean b =
  require_buf_nonempty "Gap_util.Stats.buf_mean" b;
  let n = buf_length b in
  let sum = ref 0. in
  for i = 0 to n - 1 do
    sum := !sum +. Bigarray.Array1.unsafe_get b i
  done;
  !sum /. float_of_int n

let buf_min b =
  require_buf_nonempty "Gap_util.Stats.buf_min" b;
  let m = ref infinity in
  for i = 0 to buf_length b - 1 do
    let v = Bigarray.Array1.unsafe_get b i in
    if v < !m then m := v
  done;
  !m

let buf_max b =
  require_buf_nonempty "Gap_util.Stats.buf_max" b;
  let m = ref neg_infinity in
  for i = 0 to buf_length b - 1 do
    let v = Bigarray.Array1.unsafe_get b i in
    if v > !m then m := v
  done;
  !m

let buf_count_ge b x =
  let c = ref 0 in
  for i = 0 to buf_length b - 1 do
    if Bigarray.Array1.unsafe_get b i >= x then incr c
  done;
  !c

module A1 = Bigarray.Array1

let nan_in_sample fn = invalid_arg (fn ^ ": NaN in sample")

(* Sift [h.(i)] down the min-heap [h.(0..size-1)]. *)
let sift_down (h : float array) size i =
  let x = Array.unsafe_get h i in
  let i = ref i and sinking = ref true in
  while !sinking do
    let c = (2 * !i) + 1 in
    if c >= size then sinking := false
    else begin
      let c =
        if c + 1 < size && Array.unsafe_get h (c + 1) < Array.unsafe_get h c
        then c + 1
        else c
      in
      let v = Array.unsafe_get h c in
      if v < x then begin
        Array.unsafe_set h !i v;
        i := c
      end
      else sinking := false
    end
  done;
  Array.unsafe_set h !i x

(* The two smallest of the [m] largest values of [sign *. b] ([sign] is
   [1.] or [-1.], so negation reads the bottom tail), in one pass over the
   unsorted buffer: a min-heap holds the [m] largest values seen so far,
   so at the end its root is the smallest of them and the smaller of the
   root's children the next. With [m = 1] both are the root. *)
let tail_pair fn (b : buf) ~sign m =
  let h = Array.create_float m in
  for j = 0 to m - 1 do
    let x = sign *. A1.unsafe_get b j in
    if Float.is_nan x then nan_in_sample fn;
    Array.unsafe_set h j x
  done;
  for i = (m / 2) - 1 downto 0 do
    sift_down h m i
  done;
  for j = m to buf_length b - 1 do
    let x = sign *. A1.unsafe_get b j in
    (* the root is never NaN, so a NaN sample fails this test too *)
    if not (x <= Array.unsafe_get h 0) then begin
      if Float.is_nan x then nan_in_sample fn;
      Array.unsafe_set h 0 x;
      sift_down h m 0
    end
  done;
  let next =
    if m = 1 then h.(0) else if m = 2 || h.(1) <= h.(2) then h.(1) else h.(2)
  in
  (h.(0), next)

let swap (a : buf) i j =
  let t = A1.unsafe_get a i in
  A1.unsafe_set a i (A1.unsafe_get a j);
  A1.unsafe_set a j t

(* Median-of-three Hoare quickselect over [a], which holds no NaN: the
   [k]-th smallest lands at index [k], with nothing larger before it and
   nothing smaller after it. *)
let select_in_place (a : buf) k =
  let lo = ref 0 and hi = ref (buf_length a - 1) in
  while !lo < !hi do
    let l = !lo and h = !hi in
    let mid = l + ((h - l) / 2) in
    (* order (l, mid, h) so the pivot is a median and both ends act as
       partition sentinels *)
    if A1.unsafe_get a mid < A1.unsafe_get a l then swap a mid l;
    if A1.unsafe_get a h < A1.unsafe_get a l then swap a h l;
    if A1.unsafe_get a h < A1.unsafe_get a mid then swap a h mid;
    let pivot = A1.unsafe_get a mid in
    let i = ref (l - 1) and j = ref (h + 1) in
    let crossed = ref false in
    while not !crossed do
      incr i;
      while A1.unsafe_get a !i < pivot do
        incr i
      done;
      decr j;
      while A1.unsafe_get a !j > pivot do
        decr j
      done;
      if !i >= !j then crossed := true else swap a !i !j
    done;
    if k <= !j then hi := !j else lo := !j + 1
  done;
  A1.unsafe_get a k

(* Order statistics [lo] and [hi] of [b], where [hi] is [lo] or [lo + 1].
   Each is a value, whichever algorithm finds it, so every path returns
   what indexing the sorted copy would. *)
let order_pair fn (b : buf) lo hi =
  let n = buf_length b in
  let tail = n / 32 in
  if n - lo <= tail then tail_pair fn b ~sign:1. (n - lo)
  else if hi + 1 <= tail then
    (* the [hi + 1] smallest, negated: the root is [hi], the next [hi - 1] *)
    let root, next = tail_pair fn b ~sign:(-1.) (hi + 1) in
    ((if hi = lo then -.root else -.next), -.root)
  else begin
    let a = buf_create n in
    for i = 0 to n - 1 do
      let x = A1.unsafe_get b i in
      if Float.is_nan x then nan_in_sample fn;
      A1.unsafe_set a i x
    done;
    let v_lo = select_in_place a lo in
    (v_lo, if hi = lo then v_lo else select_in_place a hi)
  end

let buf_select b k =
  let fn = "Gap_util.Stats.buf_select" in
  let n = buf_length b in
  require_buf_nonempty fn b;
  if k < 0 || k >= n then
    invalid_arg (Printf.sprintf "%s: rank %d outside [0,%d)" fn k n);
  fst (order_pair fn b k k)

let buf_percentile b p =
  let fn = "Gap_util.Stats.buf_percentile" in
  require_buf_nonempty fn b;
  if not (p >= 0. && p <= 100.) then
    invalid_arg (Printf.sprintf "%s: percentile %g not in [0,100]" fn p);
  let n = buf_length b in
  if n = 1 then begin
    let x = A1.get b 0 in
    if Float.is_nan x then nan_in_sample fn;
    x
  end
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (floor rank) in
    let hi = min (lo + 1) (n - 1) in
    let frac = rank -. float_of_int lo in
    let v_lo, v_hi = order_pair fn b lo hi in
    v_lo +. (frac *. (v_hi -. v_lo))
  end

let require_paired fn xs ys =
  if Array.length xs <> Array.length ys then
    invalid_arg
      (Printf.sprintf "%s: mismatched lengths (%d vs %d)" fn (Array.length xs)
         (Array.length ys));
  if Array.length xs < 2 then invalid_arg (fn ^ ": need at least two samples")

let correlation xs ys =
  require_paired "Gap_util.Stats.correlation" xs ys;
  let mx = mean_of xs and my = mean_of ys in
  let num = ref 0. and dx2 = ref 0. and dy2 = ref 0. in
  Array.iteri
    (fun i x ->
      let dx = x -. mx and dy = ys.(i) -. my in
      num := !num +. (dx *. dy);
      dx2 := !dx2 +. (dx *. dx);
      dy2 := !dy2 +. (dy *. dy))
    xs;
  if !dx2 = 0. || !dy2 = 0. then 0. else !num /. sqrt (!dx2 *. !dy2)

let linear_fit xs ys =
  require_paired "Gap_util.Stats.linear_fit" xs ys;
  let mx = mean_of xs and my = mean_of ys in
  let num = ref 0. and den = ref 0. in
  Array.iteri
    (fun i x ->
      let dx = x -. mx in
      num := !num +. (dx *. (ys.(i) -. my));
      den := !den +. (dx *. dx))
    xs;
  let slope = if !den = 0. then 0. else !num /. !den in
  (slope, my -. (slope *. mx))
