module Aig = Gap_logic.Aig
module Tt = Gap_logic.Truthtable

type cut = { leaves : int array }

let trivial n = { leaves = [| n |] }
let size c = Array.length c.leaves

let merge k a b =
  (* merge two sorted leaf arrays, failing fast when exceeding k *)
  let la = Array.length a.leaves and lb = Array.length b.leaves in
  let out = Array.make (la + lb) 0 in
  let rec go i j n =
    if n > k then None
    else if i = la && j = lb then begin
      Some { leaves = Array.sub out 0 n }
    end
    else if i = la then begin
      out.(n) <- b.leaves.(j);
      go i (j + 1) (n + 1)
    end
    else if j = lb then begin
      out.(n) <- a.leaves.(i);
      go (i + 1) j (n + 1)
    end
    else begin
      let x = a.leaves.(i) and y = b.leaves.(j) in
      if x = y then begin
        out.(n) <- x;
        go (i + 1) (j + 1) (n + 1)
      end
      else if x < y then begin
        out.(n) <- x;
        go (i + 1) j (n + 1)
      end
      else begin
        out.(n) <- y;
        go i (j + 1) (n + 1)
      end
    end
  in
  go 0 0 0

let subset a b =
  (* both sorted *)
  let la = Array.length a and lb = Array.length b in
  let rec go i j =
    if i = la then true
    else if j = lb then false
    else if a.(i) = b.(j) then go (i + 1) (j + 1)
    else if a.(i) > b.(j) then go i (j + 1)
    else false
  in
  la <= lb && go 0 0

let dominated c existing = List.exists (fun e -> subset e.leaves c.leaves) existing

(* cuts kept per node *)
let per_node = 10

let insert_cut cuts c =
  if dominated c cuts then cuts
  else begin
    let survivors = List.filter (fun e -> not (subset c.leaves e.leaves)) cuts in
    let cuts = c :: survivors in
    if List.length cuts <= per_node then cuts
    else begin
      (* Drop the largest cut beyond the budget (trivial cut is size 1 and
         thus always survives). *)
      let sorted = List.sort (fun a b -> Int.compare (size a) (size b)) cuts in
      let rec take n = function
        | [] -> []
        | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
      in
      take per_node sorted
    end
  end

let enumerate ?(k = 4) g =
  let n = Aig.num_nodes g in
  let cuts = Array.make n [] in
  for id = 0 to n - 1 do
    if Aig.is_and g id then begin
      let a, b = Aig.fanins g id in
      let ia = Aig.id_of_lit a and ib = Aig.id_of_lit b in
      let acc = ref [ trivial id ] in
      List.iter
        (fun ca ->
          List.iter
            (fun cb ->
              match merge k ca cb with
              | Some c -> acc := insert_cut !acc c
              | None -> ())
            cuts.(ib))
        cuts.(ia);
      cuts.(id) <- !acc
    end
    else cuts.(id) <- [ trivial id ]
  done;
  cuts

let cut_function g root cut =
  let vars = Array.length cut.leaves in
  assert (vars >= 1 && vars <= 4);
  let leaf_index = Hashtbl.create 8 in
  Array.iteri (fun i leaf -> Hashtbl.replace leaf_index leaf i) cut.leaves;
  let memo = Hashtbl.create 64 in
  let rec of_node id =
    match Hashtbl.find_opt memo id with
    | Some tt -> tt
    | None ->
        let tt =
          match Hashtbl.find_opt leaf_index id with
          | Some i -> Tt.var ~vars i
          | None ->
              if id = 0 then Tt.const_false ~vars
              else if Aig.is_input g id then
                failwith "Cuts.cut_function: cut does not cover root"
              else begin
                let a, b = Aig.fanins g id in
                Tt.logand (of_lit a) (of_lit b)
              end
        in
        Hashtbl.replace memo id tt;
        tt
  and of_lit l =
    let tt = of_node (Aig.id_of_lit l) in
    if Aig.is_compl l then Tt.lognot tt else tt
  in
  of_node root
