module Stats = Topk_em.Stats
module P = Problem

type t = {
  slabs : Slabs.t;
  (* Node [i]'s canonical intervals, sorted by decreasing weight, then
     id: the order a sink run needs.  Never modified after [build].
     Nodes are 1-based heap order; leaf for slab [s] is [leaves + s]. *)
  node_lists : Interval.t array array;
  leaves : int;
  n : int;
  numeric : bool;  (* no weight is NaN *)
}

let name = "seg-stab"

let rec next_pow2 x k = if k >= x then k else next_pow2 x (2 * k)

(* Assign the inclusive slab range [l, r] to canonical nodes; a node
   covers the half-open slab range [node_lo, node_hi). *)
let assign lists leaves itv l r =
  let rec go node node_lo node_hi =
    if l <= node_lo && r >= node_hi - 1 then
      lists.(node) <- itv :: lists.(node)
    else begin
      let mid = (node_lo + node_hi) / 2 in
      if l < mid then go (2 * node) node_lo mid;
      if r >= mid then go ((2 * node) + 1) mid node_hi
    end
  in
  go 1 0 leaves

let build ?params:_ elems =
  let n = Array.length elems in
  let endpoints = Array.make (2 * n) 0. in
  Array.iteri
    (fun i (itv : Interval.t) ->
      endpoints.(2 * i) <- itv.Interval.lo;
      endpoints.((2 * i) + 1) <- itv.Interval.hi)
    elems;
  let slabs = Slabs.of_endpoints endpoints in
  let leaves = next_pow2 (max 1 (Slabs.slab_count slabs)) 1 in
  let lists = Array.make (2 * leaves) [] in
  Array.iter
    (fun (itv : Interval.t) ->
      let l = Slabs.slab_of_coord slabs itv.Interval.lo in
      let r = Slabs.slab_of_coord slabs itv.Interval.hi in
      assign lists leaves itv l r)
    elems;
  let node_lists =
    Array.map
      (fun l ->
        let arr = Array.of_list l in
        Array.sort (fun a b -> Interval.compare_weight b a) arr;
        arr)
      lists
  in
  let numeric =
    Array.for_all (fun (itv : Interval.t) -> not (Float.is_nan itv.weight)) elems
  in
  { slabs; node_lists; leaves; n; numeric }

let size t = t.n

let space_words t =
  Slabs.space_words t.slabs
  + Array.fold_left (fun acc l -> acc + Array.length l) 0 t.node_lists
  + Array.length t.node_lists

(* Whether interval [i] of [lst] passes the scan's predicate
   [weight >= tau], which keeps NaN weights out even at tau = -inf. *)
let[@inline] passes (lst : Interval.t array) i tau =
  (Array.unsafe_get lst i).Interval.weight >= tau

(* Length of the prefix of [lst] (sorted by decreasing weight, NaN
   last) that passes.  Without NaN weights that is the whole list at
   tau = -inf, read off its length.  Otherwise an empty prefix costs
   one probe, as it cost the element-wise scan, a whole list two, and
   anything else a galloping search from the front, O(log p). *)
let prefix t (lst : Interval.t array) tau =
  let len = Array.length lst in
  if t.numeric && tau = Float.neg_infinity then len
  else if len = 0 || not (passes lst 0 tau) then 0
  else if passes lst (len - 1) tau then len
  else begin
    (* The first failure is in [b / 2, min b len - 1]. *)
    let b = ref 2 in
    while !b < len && passes lst (!b - 1) tau do
      b := 2 * !b
    done;
    let lo = ref (!b / 2) and hi = ref (min !b len - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if passes lst mid tau then lo := mid + 1 else hi := mid
    done;
    !lo
  end

(* Reportable intervals lie along the root-to-leaf path of [q]'s slab.
   Each node hands its [>= tau] prefix to the sink as one run, already
   in the sink's order, and charges its scan once, after the sink has
   seen it ([handed ()] when the sink stops inside the run): the scan
   carry makes that the same [ios]/[scanned] as one charge per
   interval. *)
let visit t q ~tau (sink : Interval.t Topk_core.Sigs.sink) =
  let s = Slabs.slab_of_point t.slabs q in
  let node = ref (t.leaves + s) in
  while !node >= 1 do
    Stats.charge_ios 1;
    let lst = t.node_lists.(!node) in
    let p = prefix t lst tau in
    (try if p > 0 then sink.run lst 0 p
     with e ->
       Stats.charge_scan (sink.handed ());
       raise e);
    Stats.charge_scan p;
    node := !node / 2
  done

let query t q ~tau = Topk_core.Sigs.collect (visit t q ~tau)

let query_monitored t q ~tau ~limit =
  Topk_core.Sigs.monitor ~limit (visit t q ~tau)
