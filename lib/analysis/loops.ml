module Method_cfg = Cfg.Method_cfg
module Dominators = Cfg.Dominators

type loop = {
  header : int;
  latches : int list;
  blocks : int list;
  depth : int;
  parent : int option;
}

type t = {
  cfg : Method_cfg.t;
  dom : Dominators.t;
  loops : loop array;
  depth : int array;
  back_edges : (int * int) list;
  irreducible : (int * int) list;
}

let compute (cfg : Method_cfg.t) =
  let n = Method_cfg.n_blocks cfg in
  let dom = Dominators.compute cfg in
  let back_edges = Dominators.back_edges cfg dom in
  (* position of each block in reverse postorder; -1 = unreachable *)
  let rpo_pos = Array.make n (-1) in
  Array.iteri (fun i b -> rpo_pos.(b) <- i) dom.Dominators.rpo;
  let irreducible =
    let back = List.sort_uniq compare back_edges in
    let retreating = ref [] in
    Array.iteri
      (fun b blk ->
        if rpo_pos.(b) >= 0 then
          List.iter
            (fun s ->
              if
                rpo_pos.(s) >= 0
                && rpo_pos.(s) <= rpo_pos.(b)
                && not (List.mem (b, s) back)
              then retreating := (b, s) :: !retreating)
            (Method_cfg.successors cfg blk))
      cfg.Method_cfg.blocks;
    List.sort compare !retreating
  in
  (* merge back edges by header *)
  let by_header = Hashtbl.create 8 in
  List.iter
    (fun (latch, header) ->
      let latches, blocks =
        match Hashtbl.find_opt by_header header with
        | Some (ls, bs) -> (ls, bs)
        | None -> ([], [])
      in
      let body = Dominators.natural_loop cfg ~back:(latch, header) in
      Hashtbl.replace by_header header
        (latch :: latches, List.sort_uniq Int.compare (body @ blocks)))
    back_edges;
  let headers =
    Hashtbl.fold (fun h _ acc -> h :: acc) by_header []
    |> List.sort Int.compare
  in
  let depth = Array.make n 0 in
  List.iter
    (fun h ->
      let _, blocks = Hashtbl.find by_header h in
      List.iter (fun b -> depth.(b) <- depth.(b) + 1) blocks)
    headers;
  let in_loop h b =
    let _, blocks = Hashtbl.find by_header h in
    List.mem b blocks
  in
  let loops =
    Array.of_list
      (List.map
         (fun h ->
           let latches, blocks = Hashtbl.find by_header h in
           (* the innermost enclosing loop is the smallest other loop whose
              body contains this header *)
           let parent =
             List.mapi (fun i h' -> (i, h')) headers
             |> List.filter (fun (_, h') -> h' <> h && in_loop h' h)
             |> List.map (fun (i, h') ->
                    (List.length (snd (Hashtbl.find by_header h')), i))
             |> List.sort compare
             |> function
             | (_, i) :: _ -> Some i
             | [] -> None
           in
           {
             header = h;
             latches = List.sort Int.compare latches;
             blocks;
             depth = depth.(h);
             parent;
           })
         headers)
  in
  { cfg; dom; loops; depth; back_edges; irreducible }
