module Stats = Topk_em.Stats
module Search = Topk_util.Search
module P = Problem

type t = {
  positions : float array;  (* ascending *)
  (* 1-based heap order over [leaves] slots; node i covers the sorted
     ranks [lo_i, hi_i); its list is that range by decreasing weight. *)
  node_lists : Wpoint.t array array;
  leaves : int;
  n : int;
}

let name = "range-segtree"

let rec next_pow2 x k = if k >= x then k else next_pow2 x (2 * k)

let build ?params:_ elems =
  let sorted = Array.copy elems in
  Array.sort Wpoint.compare_pos sorted;
  let n = Array.length sorted in
  let leaves = next_pow2 (max 1 n) 1 in
  let node_lists = Array.make (2 * leaves) [||] in
  (* Build bottom-up: a node's list is the weight-descending merge of
     its children's lists. *)
  for i = 0 to n - 1 do
    node_lists.(leaves + i) <- [| sorted.(i) |]
  done;
  let merge a b =
    let la = Array.length a and lb = Array.length b in
    let out = Array.make (la + lb) (if la > 0 then a.(0) else b.(0)) in
    let ia = ref 0 and ib = ref 0 in
    for k = 0 to la + lb - 1 do
      if
        !ib >= lb
        || (!ia < la && Wpoint.compare_weight a.(!ia) b.(!ib) > 0)
      then begin
        out.(k) <- a.(!ia);
        incr ia
      end
      else begin
        out.(k) <- b.(!ib);
        incr ib
      end
    done;
    out
  in
  for i = leaves - 1 downto 1 do
    let l = node_lists.(2 * i) and r = node_lists.((2 * i) + 1) in
    if Array.length l + Array.length r > 0 then
      node_lists.(i) <- merge l r
  done;
  {
    positions = Array.map (fun (p : Wpoint.t) -> p.Wpoint.pos) sorted;
    node_lists;
    leaves;
    n;
  }

let size t = t.n

let space_words t =
  Array.length t.positions
  + Array.fold_left (fun acc l -> acc + Array.length l) 0 t.node_lists
  + Array.length t.node_lists

(* Rank range [a, b) of positions within [lo, hi]. *)
let rank_range t (lo, hi) =
  Stats.charge_ios
    (max 1 (int_of_float (Float.log2 (float_of_int (t.n + 2)))));
  let a = Search.lower_bound ~cmp:Float.compare t.positions lo in
  let b = Search.upper_bound ~cmp:Float.compare t.positions hi in
  (a, b)

(* Each point's scan is charged before the callback sees it, so the
   node's list is handed over point by point, not as a sink run: a run
   charged after the sink would move the fault hook's calls. *)
let scan_node t node ~tau f =
  Stats.charge_ios 1;
  let lst = t.node_lists.(node) in
  let i = ref 0 in
  let continue = ref true in
  while !continue && !i < Array.length lst do
    let p = lst.(!i) in
    if p.Wpoint.weight >= tau then begin
      Stats.charge_scan 1;
      f p;
      incr i
    end
    else continue := false
  done

let visit t q ~tau { Topk_core.Sigs.one; _ } =
  let a, b = rank_range t q in
  if a < b then begin
    (* Standard iterative canonical decomposition of [a, b). *)
    let l = ref (t.leaves + a) and r = ref (t.leaves + b) in
    while !l < !r do
      if !l land 1 = 1 then begin
        scan_node t !l ~tau one;
        incr l
      end;
      if !r land 1 = 1 then begin
        decr r;
        scan_node t !r ~tau one
      end;
      l := !l / 2;
      r := !r / 2
    done
  end

let query t q ~tau = Topk_core.Sigs.collect (visit t q ~tau)

let query_monitored t q ~tau ~limit =
  Topk_core.Sigs.monitor ~limit (visit t q ~tau)
