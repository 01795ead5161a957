type lit = int

type node =
  | Const
  | Input of int (* position in the input list *)
  | And of lit * lit

type t = {
  nodes : node Gap_util.Vec.t;
  mutable input_names : string list; (* reversed *)
  mutable output_list : (string * lit) list; (* reversed *)
  strash : (int * int, lit) Hashtbl.t;
}

let lit_false = 0
let lit_true = 1
let lit_of_id id compl = (2 * id) + if compl then 1 else 0
let id_of_lit l = l lsr 1
let is_compl l = l land 1 = 1
let negate l = l lxor 1

let create () =
  let nodes = Gap_util.Vec.create () in
  ignore (Gap_util.Vec.push nodes Const);
  { nodes; input_names = []; output_list = []; strash = Hashtbl.create 1024 }

let add_input g name =
  let pos = List.length g.input_names in
  g.input_names <- name :: g.input_names;
  let id = Gap_util.Vec.push g.nodes (Input pos) in
  lit_of_id id false

let and_ g a b =
  let a, b = if a <= b then (a, b) else (b, a) in
  if a = lit_false then lit_false
  else if a = lit_true then b
  else if a = b then a
  else if a = negate b then lit_false
  else
    match Hashtbl.find_opt g.strash (a, b) with
    | Some l -> l
    | None ->
        let id = Gap_util.Vec.push g.nodes (And (a, b)) in
        let l = lit_of_id id false in
        Hashtbl.add g.strash (a, b) l;
        l

let or_ g a b = negate (and_ g (negate a) (negate b))

let xor_ g a b =
  (* a ^ b = !(a & b) & !(!a & !b), two AND nodes after sharing *)
  let nand = negate (and_ g a b) in
  let nor = negate (or_ g a b) in
  and_ g nand (negate nor)

let mux_ g ~sel a b = or_ g (and_ g (negate sel) a) (and_ g sel b)
let add_output g name l = g.output_list <- (name, l) :: g.output_list
let num_inputs g = List.length g.input_names
let num_outputs g = List.length g.output_list
let num_nodes g = Gap_util.Vec.length g.nodes
let num_ands g = num_nodes g - num_inputs g - 1

let inputs g =
  let names = Array.of_list (List.rev g.input_names) in
  let result = Array.make (Array.length names) ("", 0) in
  Gap_util.Vec.iteri
    (fun id node ->
      match node with
      | Input pos -> result.(pos) <- (names.(pos), lit_of_id id false)
      | Const | And _ -> ())
    g.nodes;
  result

let outputs g = Array.of_list (List.rev g.output_list)

let input_index g id =
  match Gap_util.Vec.get g.nodes id with
  | Input pos -> Some pos
  | Const | And _ -> None

let is_input g id =
  match Gap_util.Vec.get g.nodes id with Input _ -> true | Const | And _ -> false

let is_and g id =
  match Gap_util.Vec.get g.nodes id with And _ -> true | Const | Input _ -> false

let fanins g id =
  match Gap_util.Vec.get g.nodes id with
  | And (a, b) -> (a, b)
  | Const | Input _ -> invalid_arg "Aig.fanins: not an AND node"

let levels g =
  let n = num_nodes g in
  let lev = Array.make n 0 in
  for id = 0 to n - 1 do
    match Gap_util.Vec.get g.nodes id with
    | Const | Input _ -> ()
    | And (a, b) -> lev.(id) <- 1 + max lev.(id_of_lit a) lev.(id_of_lit b)
  done;
  lev

let depth g =
  let lev = levels g in
  List.fold_left (fun acc (_, l) -> max acc lev.(id_of_lit l)) 0 g.output_list

let fanout_counts g =
  let counts = Array.make (num_nodes g) 0 in
  Gap_util.Vec.iter
    (fun node ->
      match node with
      | And (a, b) ->
          counts.(id_of_lit a) <- counts.(id_of_lit a) + 1;
          counts.(id_of_lit b) <- counts.(id_of_lit b) + 1
      | Const | Input _ -> ())
    g.nodes;
  List.iter
    (fun (_, l) -> counts.(id_of_lit l) <- counts.(id_of_lit l) + 1)
    g.output_list;
  counts

let eval64 g ins =
  assert (Array.length ins = num_inputs g);
  let n = num_nodes g in
  let values = Array.make n 0L in
  let value_of l =
    let v = values.(id_of_lit l) in
    if is_compl l then Int64.lognot v else v
  in
  for id = 0 to n - 1 do
    match Gap_util.Vec.get g.nodes id with
    | Const -> values.(id) <- 0L
    | Input pos -> values.(id) <- ins.(pos)
    | And (a, b) -> values.(id) <- Int64.logand (value_of a) (value_of b)
  done;
  Array.map (fun (_, l) -> value_of l) (outputs g)

let eval g ins =
  let packed = Array.map (fun b -> if b then 1L else 0L) ins in
  Array.map (fun v -> Int64.logand v 1L = 1L) (eval64 g packed)

let topo_ands g =
  let acc = ref [] in
  for id = num_nodes g - 1 downto 0 do
    if is_and g id then acc := id :: !acc
  done;
  Array.of_list !acc

let cone_of g roots =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let rec visit id =
    if not (Hashtbl.mem seen id) then begin
      Hashtbl.add seen id ();
      match Gap_util.Vec.get g.nodes id with
      | Const | Input _ -> ()
      | And (a, b) ->
          visit (id_of_lit a);
          visit (id_of_lit b);
          acc := id :: !acc
    end
  in
  List.iter (fun l -> visit (id_of_lit l)) roots;
  (* [acc] is collected children-first, i.e. already topological. *)
  Array.of_list (List.rev !acc)

let equivalent_random g1 g2 rng =
  num_inputs g1 = num_inputs g2
  && num_outputs g1 = num_outputs g2
  &&
  let n = num_inputs g1 in
  let rec round k =
    if k = 0 then true
    else begin
      let ins = Array.init n (fun _ -> Gap_util.Rng.int64 rng) in
      let o1 = eval64 g1 ins and o2 = eval64 g2 ins in
      if o1 = o2 then round (k - 1) else false
    end
  in
  round 16

let pp_stats ppf g =
  Format.fprintf ppf "aig: %d inputs, %d outputs, %d ands, depth %d"
    (num_inputs g) (num_outputs g) (num_ands g) (depth g)
