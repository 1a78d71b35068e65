module Stats = Topk_em.Stats
module Prefix_blocks = Topk_core.Prefix_blocks
module P = Problem

type t = {
  weights_desc : float array;
  blocks : Dom3.t Prefix_blocks.t;
  n : int;
}

let name = "dom3-rangetree"

let build ?params:_ pts =
  let sorted = Array.copy pts in
  Array.sort (fun a b -> Point3.compare_weight b a) sorted;
  let n = Array.length sorted in
  let blocks =
    Prefix_blocks.build ~n ~build:(fun o len ->
        Dom3.build (Array.sub sorted o len))
  in
  {
    weights_desc = Array.map (fun (p : Point3.t) -> p.Point3.weight) sorted;
    blocks;
    n;
  }

let size t = t.n

let space_words t =
  Array.length t.weights_desc
  + Prefix_blocks.fold_all t.blocks ~init:0 ~f:(fun acc d ->
        acc + Dom3.space_words d)

let visit t q ~tau { Topk_core.Sigs.one; _ } =
  let m =
    if tau = Float.neg_infinity then t.n
    else begin
      Stats.charge_ios
        (max 1 (int_of_float (Float.log2 (float_of_int (t.n + 2)))));
      (* upper_bound: keep elements whose weight equals tau. *)
      Topk_util.Search.upper_bound
        ~cmp:(fun w w' -> Float.compare w' w)
        t.weights_desc tau
    end
  in
  let blocks = Prefix_blocks.query_prefix t.blocks m in
  List.iter (fun d -> Dom3.visit d q one) blocks

let query t q ~tau = Topk_core.Sigs.collect (visit t q ~tau)

let query_monitored t q ~tau ~limit =
  Topk_core.Sigs.monitor ~limit (visit t q ~tau)
