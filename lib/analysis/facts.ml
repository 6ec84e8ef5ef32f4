module Layout = Cfg.Layout

(* One layout's facts, by method id; [None] until first asked for. *)
type t = {
  cp : Constprop.t option array;
  live : Liveness.t option array;
}

(* Keyed on the layout's physical identity: hashing its contents would
   read a whole program, and two layouts of the same program keep
   separate facts.  The hash only spreads layouts over buckets (the
   block count never changes after [Layout.build]).  A value holds its
   methods' CFGs and the program, never the layout record itself, so the
   ephemeron does not keep its own key alive. *)
module Table = Ephemeron.K1.Make (struct
  type t = Layout.t

  let equal = ( == )

  let hash (l : Layout.t) = Hashtbl.hash l.Layout.n_blocks
end)

let table : t Table.t = Table.create 8

let of_layout (layout : Layout.t) =
  match Table.find_opt table layout with
  | Some f -> f
  | None ->
      let n = Array.length layout.Layout.cfgs in
      let f = { cp = Array.make n None; live = Array.make n None } in
      Table.replace table layout f;
      f

let constprop layout ~method_id =
  let f = of_layout layout in
  match f.cp.(method_id) with
  | Some c -> c
  | None ->
      let c =
        Constprop.compute layout.Layout.program
          (Layout.cfg_of_method layout ~method_id)
      in
      f.cp.(method_id) <- Some c;
      c

let liveness layout ~method_id =
  let f = of_layout layout in
  match f.live.(method_id) with
  | Some l -> l
  | None ->
      let l = Liveness.compute (Layout.cfg_of_method layout ~method_id) in
      f.live.(method_id) <- Some l;
      l
