module Seg = Topk_interval.Seg_stab
module P = Problem

type node = {
  ystab : Seg.t;
  by_id : (int, Rect.t) Hashtbl.t;
}

type t = {
  tree : node Xtree.t;
  n : int;
}

let name = "enc-segtree2"

let make_node rects =
  let by_id = Hashtbl.create (Array.length rects) in
  Array.iter (fun (r : Rect.t) -> Hashtbl.replace by_id r.Rect.id r) rects;
  { ystab = Seg.build (Array.map Rect.y_interval rects); by_id }

let build ?params:_ rects = { tree = Xtree.build ~make_node rects; n = Array.length rects }

let size t = t.n

let space_words t =
  Xtree.space_words t.tree ~words:(fun node ->
      Seg.space_words node.ystab + Hashtbl.length node.by_id)

(* [Seg]'s runs are unrolled through the by-id remap; its [handed ()]
   stays exact because [Sigs.sink] counts before each call. *)
let visit t (x, y) ~tau { Topk_core.Sigs.one; _ } =
  Xtree.visit_path t.tree x (fun node ->
      Seg.visit node.ystab y ~tau
        (Topk_core.Sigs.sink (fun itv ->
             one (Hashtbl.find node.by_id itv.Topk_interval.Interval.id))))

let query t q ~tau = Topk_core.Sigs.collect (visit t q ~tau)

let query_monitored t q ~tau ~limit =
  Topk_core.Sigs.monitor ~limit (visit t q ~tau)
