module Stats = Topk_em.Stats
module P = Problem
module B = Topk_core.Bentley_saxe.Buckets (P)

type bucket = {
  slabs : Slabs.t;
  nodes : B.node array;  (* 1-based heap order *)
  leaves : int;
}

type t = bucket B.t

let name = "dyn-slab-max"

let rec next_pow2 x k = if k >= x then k else next_pow2 x (2 * k)

let build_bucket elems =
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
  let assign (itv : Interval.t) =
    let l = Slabs.slab_of_coord slabs itv.Interval.lo in
    let r = Slabs.slab_of_coord slabs itv.Interval.hi in
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
  in
  Array.iter assign elems;
  { slabs; nodes = Array.map B.node lists; leaves }

let build ?params:_ elems = B.create build_bucket elems

let insert = B.insert

let delete = B.delete

let size = B.live

let live = B.live

let rebuilds = B.rebuilds

let space_words t =
  B.space_words t (fun b -> Slabs.space_words b.slabs + B.nodes_words b.nodes)

let bucket_max t b q =
  let s = Slabs.slab_of_point b.slabs q in
  let best = ref None in
  let node = ref (b.leaves + s) in
  while !node >= 1 do
    Stats.charge_ios 1;
    best := B.heavier !best (B.peek t b.nodes.(!node));
    node := !node / 2
  done;
  !best

let query t q = B.best t (fun b -> bucket_max t b q)
