module Stats = Topk_em.Stats
module P = Problem

type t = {
  slabs : Slabs.t;
  (* Node [i]'s canonical intervals, sorted by decreasing weight.
     Nodes are 1-based heap order; leaf for slab [s] is [leaves + s]. *)
  node_lists : Interval.t array array;
  leaves : int;
  n : int;
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
  { slabs; node_lists; leaves; n }

let size t = t.n

let space_words t =
  Slabs.space_words t.slabs
  + Array.fold_left (fun acc l -> acc + Array.length l) 0 t.node_lists
  + Array.length t.node_lists

(* Reportable intervals lie along the root-to-leaf path of [q]'s slab.
   Each node's scan is charged once, after [f] has seen its intervals
   ([i + 1] when [f] raises at interval [i]): the scan carry makes that
   the same [ios]/[scanned] as one charge per interval. *)
let visit t q ~tau f =
  let s = Slabs.slab_of_point t.slabs q in
  let node = ref (t.leaves + s) in
  while !node >= 1 do
    Stats.charge_ios 1;
    let lst = t.node_lists.(!node) in
    let len = Array.length lst in
    let i = ref 0 in
    (try
       while !i < len && (Array.unsafe_get lst !i).Interval.weight >= tau do
         f (Array.unsafe_get lst !i);
         incr i
       done
     with e ->
       Stats.charge_scan (!i + 1);
       raise e);
    Stats.charge_scan !i;
    node := !node / 2
  done

let query t q ~tau = Topk_core.Sigs.collect (visit t q ~tau)

let query_monitored t q ~tau ~limit =
  Topk_core.Sigs.monitor ~limit (visit t q ~tau)
