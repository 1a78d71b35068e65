module Stats = Topk_em.Stats
module Search = Topk_util.Search
module P = Problem
module B = Topk_core.Bentley_saxe.Buckets (P)

type bucket = {
  positions : float array;  (* ascending *)
  nodes : B.node array;     (* 1-based heap order *)
  leaves : int;
}

type t = bucket B.t

let name = "dyn-range-max"

let rec next_pow2 x k = if k >= x then k else next_pow2 x (2 * k)

let build_bucket elems =
  let sorted = Array.copy elems in
  Array.sort Wpoint.compare_pos sorted;
  let n = Array.length sorted in
  let leaves = next_pow2 (max 1 n) 1 in
  let lists = Array.make (2 * leaves) [] in
  (* Each point contributes to every node on its leaf-to-root path. *)
  for i = 0 to n - 1 do
    let node = ref (leaves + i) in
    while !node >= 1 do
      lists.(!node) <- sorted.(i) :: lists.(!node);
      node := !node / 2
    done
  done;
  {
    positions = Array.map (fun (p : Wpoint.t) -> p.Wpoint.pos) sorted;
    nodes = Array.map B.node lists;
    leaves;
  }

let build ?params:_ elems = B.create build_bucket elems

let insert = B.insert

let delete = B.delete

let size = B.live

let live = B.live

let rebuilds = B.rebuilds

let space_words t =
  B.space_words t (fun b -> Array.length b.positions + B.nodes_words b.nodes)

let bucket_max t b (lo, hi) =
  Stats.charge_ios
    (max 1
       (int_of_float (Float.log2 (float_of_int (Array.length b.positions + 2)))));
  let a = Search.lower_bound ~cmp:Float.compare b.positions lo in
  let z = Search.upper_bound ~cmp:Float.compare b.positions hi in
  if a >= z then None
  else begin
    let best = ref None in
    let l = ref (b.leaves + a) and r = ref (b.leaves + z) in
    while !l < !r do
      Stats.charge_ios 1;
      if !l land 1 = 1 then begin
        best := B.heavier !best (B.peek t b.nodes.(!l));
        incr l
      end;
      if !r land 1 = 1 then begin
        decr r;
        best := B.heavier !best (B.peek t b.nodes.(!r))
      end;
      l := !l / 2;
      r := !r / 2
    done;
    !best
  end

let query t q = B.best t (fun b -> bucket_max t b q)
