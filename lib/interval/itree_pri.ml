module Stats = Topk_em.Stats
module Pst = Topk_pst.Pst
module P = Problem

type node = {
  center : float;
  (* The node's intervals (those containing [center]), twice: *)
  by_lo : Interval.t Pst.t;  (* key = lo, for queries left of center *)
  by_hi : Interval.t Pst.t;  (* key = hi, for queries right of center *)
  left : node option;        (* intervals entirely left of center *)
  right : node option;
}

type t = {
  root : node option;
  n : int;
  depth : int;
}

let name = "itree-stab"

let weight_of (itv : Interval.t) = itv.Interval.weight

(* Median endpoint of the remaining intervals, as the split center. *)
let median_endpoint intervals =
  let endpoints = Array.make (2 * Array.length intervals) 0. in
  Array.iteri
    (fun i (itv : Interval.t) ->
      endpoints.(2 * i) <- itv.Interval.lo;
      endpoints.((2 * i) + 1) <- itv.Interval.hi)
    intervals;
  Topk_util.Select.quickselect ~cmp:Float.compare endpoints
    (Array.length endpoints / 2)

let rec build_node intervals =
  if Array.length intervals = 0 then (None, 0)
  else begin
    let center = median_endpoint intervals in
    let here = ref [] and lefts = ref [] and rights = ref [] in
    Array.iter
      (fun (itv : Interval.t) ->
        if itv.Interval.hi < center then lefts := itv :: !lefts
        else if itv.Interval.lo > center then rights := itv :: !rights
        else here := itv :: !here)
      intervals;
    let here = Array.of_list !here in
    let left, dl = build_node (Array.of_list !lefts) in
    let right, dr = build_node (Array.of_list !rights) in
    ( Some
        {
          center;
          by_lo =
            Pst.build ~key:(fun (i : Interval.t) -> i.Interval.lo)
              ~weight:weight_of here;
          by_hi =
            Pst.build ~key:(fun (i : Interval.t) -> i.Interval.hi)
              ~weight:weight_of here;
          left;
          right;
        },
      1 + max dl dr )
  end

let build ?params:_ elems =
  let root, depth = build_node (Array.copy elems) in
  { root; n = Array.length elems; depth }

let size t = t.n

let depth t = t.depth

let rec node_words = function
  | None -> 0
  | Some node ->
      1
      + Pst.space_words node.by_lo
      + Pst.space_words node.by_hi
      + node_words node.left
      + node_words node.right

let space_words t = node_words t.root

let visit t q ~tau { Topk_core.Sigs.one; _ } =
  let rec go = function
    | None -> ()
    | Some node ->
        Stats.charge_ios 1;
        if q < node.center then begin
          (* Node intervals contain center > q: they contain q iff
             lo <= q. *)
          Pst.query node.by_lo ~side:Pst.Below ~bound:q ~tau one;
          go node.left
        end
        else if q > node.center then begin
          Pst.query node.by_hi ~side:Pst.Above ~bound:q ~tau one;
          go node.right
        end
        else
          (* q = center: every node interval contains q. *)
          Pst.query node.by_lo ~side:Pst.Below ~bound:q ~tau one
  in
  go t.root

let query t q ~tau = Topk_core.Sigs.collect (visit t q ~tau)

let query_monitored t q ~tau ~limit =
  Topk_core.Sigs.monitor ~limit (visit t q ~tau)
