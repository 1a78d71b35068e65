module Stats = Topk_em.Stats
module P2 = Topk_geom.Point2
module Layers = Topk_geom.Layers
module Prefix_blocks = Topk_core.Prefix_blocks
module P = Hp_problem

type t = {
  sorted : P2.t array;         (* weight descending *)
  weights_desc : float array;  (* weights of [sorted] *)
  blocks : Layers.t Prefix_blocks.t;
  n : int;
}

let name = "hp-onion"

let build ?params:_ elems =
  let sorted = Array.copy elems in
  Array.sort (fun a b -> P2.compare_weight b a) sorted;
  let n = Array.length sorted in
  let blocks =
    Prefix_blocks.build ~n ~build:(fun o len ->
        Layers.build (Array.sub sorted o len))
  in
  let weights_desc = Array.map (fun (p : P2.t) -> p.P2.weight) sorted in
  { sorted; weights_desc; blocks; n }

let size t = t.n

let space_words t =
  Array.length t.sorted + Array.length t.weights_desc
  + Prefix_blocks.fold_all t.blocks ~init:0 ~f:(fun acc l ->
        acc + Layers.space_words l)

(* Number of elements with weight >= tau: they occupy a prefix of the
   weight-descending order. *)
let prefix_length t ~tau =
  Stats.charge_ios
    (max 1 (int_of_float (Float.log2 (float_of_int (t.n + 2)))));
  (* First index with weight strictly below tau, so that elements with
     weight exactly tau are included (the reductions query with
     tau = w(e) for an existing element e). *)
  Topk_util.Search.upper_bound
    ~cmp:(fun w w' -> Float.compare w' w)  (* descending *)
    t.weights_desc tau

let visit t q ~tau { Topk_core.Sigs.one; _ } =
  let m =
    if tau = Float.neg_infinity then t.n else prefix_length t ~tau
  in
  let blocks = Prefix_blocks.query_prefix t.blocks m in
  List.iter (fun l -> ignore (Layers.report_halfplane l q one)) blocks

let query t q ~tau = Topk_core.Sigs.collect (visit t q ~tau)

let query_monitored t q ~tau ~limit =
  Topk_core.Sigs.monitor ~limit (visit t q ~tau)
