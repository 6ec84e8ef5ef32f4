module Instr = Bytecode.Instr
module Mthd = Bytecode.Mthd
module Klass = Bytecode.Klass
module Program = Bytecode.Program

(* Iterative dominator computation (Cooper-Harvey-Kennedy) over a method
   CFG, plus back-edge and natural-loop discovery.  Used by analyses and
   the NET baseline's notion of loop headers. *)

type t = {
  idom : int array; (* immediate dominator; entry maps to itself; -1 = unreachable *)
  rpo : int array; (* reverse postorder sequence of reachable blocks *)
}

let compute (cfg : Method_cfg.t) : t =
  let n = Method_cfg.n_blocks cfg in
  let succs = Array.init n (fun i -> Method_cfg.successors cfg cfg.Method_cfg.blocks.(i)) in
  (* reverse postorder from block 0 *)
  let visited = Array.make n false in
  let order = ref [] in
  let rec dfs i =
    if not visited.(i) then begin
      visited.(i) <- true;
      List.iter dfs succs.(i);
      order := i :: !order
    end
  in
  dfs 0;
  let rpo = Array.of_list !order in
  let rpo_index = Array.make n (-1) in
  Array.iteri (fun k b -> rpo_index.(b) <- k) rpo;
  let preds = Method_cfg.predecessors cfg in
  let idom = Array.make n (-1) in
  idom.(0) <- 0;
  let intersect a b =
    let a = ref a and b = ref b in
    while !a <> !b do
      while rpo_index.(!a) > rpo_index.(!b) do
        a := idom.(!a)
      done;
      while rpo_index.(!b) > rpo_index.(!a) do
        b := idom.(!b)
      done
    done;
    !a
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun b ->
        if b <> 0 then begin
          let processed =
            List.filter (fun p -> idom.(p) >= 0) preds.(b)
          in
          match processed with
          | [] -> ()
          | first :: rest ->
              let new_idom = List.fold_left intersect first rest in
              if idom.(b) <> new_idom then begin
                idom.(b) <- new_idom;
                changed := true
              end
        end)
      rpo
  done;
  { idom; rpo }

let dominates t ~dom ~sub =
  if t.idom.(sub) < 0 || t.idom.(dom) < 0 then false
  else
    let rec walk b = b = dom || (b <> t.idom.(b) && walk t.idom.(b)) in
    walk sub

(* Back edges: edges b -> h where h dominates b. *)
let back_edges (cfg : Method_cfg.t) (t : t) : (int * int) list =
  let acc = ref [] in
  Array.iteri
    (fun b blk ->
      if t.idom.(b) >= 0 then
        List.iter
          (fun h ->
            if dominates t ~dom:h ~sub:b then acc := (b, h) :: !acc)
          (Method_cfg.successors cfg blk))
    cfg.Method_cfg.blocks;
  List.rev !acc

(* Natural loop of a back edge (b, h): all blocks that can reach b without
   passing through h, plus h. *)
let natural_loop (cfg : Method_cfg.t) ~(back : int * int) : int list =
  let b, h = back in
  let preds = Method_cfg.predecessors cfg in
  let in_loop = Hashtbl.create 8 in
  Hashtbl.replace in_loop h ();
  let rec add x =
    if not (Hashtbl.mem in_loop x) then begin
      Hashtbl.replace in_loop x ();
      List.iter add preds.(x)
    end
  in
  add b;
  Hashtbl.fold (fun k () acc -> k :: acc) in_loop [] |> List.sort compare
