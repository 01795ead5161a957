type edge = { src : int; dst : int; w : int }

type t = {
  delays : float Gap_util.Vec.t;
  mutable edges : edge list;
}

exception Register_free_cycle of int list

let () =
  Printexc.register_printer (function
    | Register_free_cycle nodes ->
        Some
          (Printf.sprintf "Gap_retime.Retime.Register_free_cycle (%s)"
             (String.concat " -> " (List.map string_of_int nodes)))
    | _ -> None)

let create () = { delays = Gap_util.Vec.create (); edges = [] }

let add_node t ~delay =
  if not (delay >= 0.) then
    invalid_arg (Printf.sprintf "Retime.add_node: negative delay %g" delay);
  Gap_util.Vec.push t.delays delay

let add_edge t ~src ~dst ~regs =
  if regs < 0 then invalid_arg "Retime.add_edge: negative register count";
  let n = Gap_util.Vec.length t.delays in
  if src < 0 || src >= n || dst < 0 || dst >= n then
    invalid_arg (Printf.sprintf "Retime.add_edge: node out of range (%d -> %d, %d nodes)" src dst n);
  t.edges <- { src; dst; w = regs } :: t.edges

let node_count t = Gap_util.Vec.length t.delays

let retimed_weight retiming e =
  match retiming with None -> e.w | Some r -> e.w + r.(e.dst) - r.(e.src)

let legal t r =
  List.for_all (fun e -> retimed_weight (Some r) e >= 0) t.edges

(* Longest register-free path: Delta(v) = d(v) + max over 0-weight incoming
   edges of Delta(src). Computed over the 0-weight subgraph topologically. *)
let deltas ?retiming t =
  let n = node_count t in
  let g = Gap_util.Digraph.create () in
  Gap_util.Digraph.add_nodes g n;
  List.iter
    (fun e ->
      let w = retimed_weight retiming e in
      if w < 0 then invalid_arg "Retime: negative retimed edge weight";
      if w = 0 then Gap_util.Digraph.add_edge g e.src e.dst)
    t.edges;
  match Gap_util.Digraph.longest_path g ~node_delay:(Gap_util.Vec.get t.delays) with
  | Some arr -> arr
  | None ->
      let cycle =
        match Gap_util.Digraph.find_cycle g with Some c -> c | None -> []
      in
      raise (Register_free_cycle cycle)

let well_formed t =
  match deltas t with _ -> true | exception Register_free_cycle _ -> false

let clock_period ?retiming t =
  let retiming = retiming in
  let d = deltas ?retiming t in
  Array.fold_left Float.max 0. d

let feasible t ~period =
  let n = node_count t in
  let r = Array.make n 0 in
  let ok = ref false in
  (* |V| - 1 FEAS iterations *)
  (try
     for _ = 1 to max 1 (n - 1) do
       let d = deltas ~retiming:r t in
       let any = ref false in
       Array.iteri
         (fun v dv ->
           if dv > period +. 1e-9 then begin
             r.(v) <- r.(v) + 1;
             any := true
           end)
         d;
       if not !any then raise Exit
     done
   with Exit -> ());
  (* final check *)
  (match deltas ~retiming:r t with
  | d -> if Array.for_all (fun dv -> dv <= period +. 1e-9) d && legal t r then ok := true
  | exception (Register_free_cycle _ | Invalid_argument _) -> ());
  if !ok then Some r else None

let min_period t =
  let upper = clock_period t in
  let lower =
    let acc = ref 0. in
    Gap_util.Vec.iter (fun d -> if d > !acc then acc := d) t.delays;
    !acc
  in
  let best = ref (upper, Array.make (node_count t) 0) in
  let lo = ref lower and hi = ref upper in
  while !hi -. !lo > 1e-3 do
    let mid = (!lo +. !hi) /. 2. in
    match feasible t ~period:mid with
    | Some r ->
        best := (clock_period ~retiming:r t, r);
        hi := mid
    | None -> lo := mid
  done;
  !best

let registers ?retiming t =
  List.fold_left (fun acc e -> acc + retimed_weight retiming e) 0 t.edges
