module P2 = Topk_geom.Point2
module Range_pri = Topk_range.Range_pri
module Wpoint = Topk_range.Wpoint
module P = Problem

type node = {
  ystab : Range_pri.t;
  by_id : (int, P2.t) Hashtbl.t;
}

type t = {
  tree : node Xtree.t;
  n : int;
}

let name = "ortho-rangetree"

let make_node pts =
  let by_id = Hashtbl.create (Array.length pts) in
  Array.iter (fun (p : P2.t) -> Hashtbl.replace by_id p.P2.id p) pts;
  let ypoints =
    Array.map
      (fun (p : P2.t) ->
        Wpoint.make ~id:p.P2.id ~pos:p.P2.y ~weight:p.P2.weight ())
      pts
  in
  { ystab = Range_pri.build ypoints; by_id }

let build ?params:_ pts = { tree = Xtree.build ~make_node pts; n = Array.length pts }

let size t = t.n

let space_words t =
  Xtree.space_words t.tree ~words:(fun node ->
      Range_pri.space_words node.ystab + Hashtbl.length node.by_id)

let visit t (x1, x2, y1, y2) ~tau { Topk_core.Sigs.one; _ } =
  Xtree.visit_range t.tree ~x1 ~x2 (fun node ->
      Range_pri.visit node.ystab (y1, y2) ~tau
        (Topk_core.Sigs.sink (fun wp ->
             one (Hashtbl.find node.by_id wp.Wpoint.id))))

let query t q ~tau = Topk_core.Sigs.collect (visit t q ~tau)

let query_monitored t q ~tau ~limit =
  Topk_core.Sigs.monitor ~limit (visit t q ~tau)
