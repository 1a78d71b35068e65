module Stats = Topk_em.Stats

module Make (S : Sigs.PRIORITIZED) = struct
  module P = S.P
  module W = Sigs.Weight_order (P)

  type t = {
    elems : P.elem array;
    pri : S.t;
    weights_desc : float array;  (* all weights, descending *)
    mutable probe_count : int;
  }

  let name = "baseline-rj(" ^ S.name ^ ")"

  let build ?params elems =
    let elems = Array.copy elems in
    let weights_desc = Array.map P.weight elems in
    Array.sort (fun a b -> Float.compare b a) weights_desc;
    { elems; pri = S.build ?params elems; weights_desc; probe_count = 0 }

  let size t = Array.length t.elems

  let space_words t = Array.length t.elems + S.space_words t.pri +
                      Array.length t.weights_desc

  let probes t = t.probe_count

  (* The [k] heaviest of [q]'s matches at [tau], streamed from the
     visit; their k-selection is charged as one pass over them. *)
  let select_top_k t q ~tau ~k =
    let count, top = W.top_k_count k (S.visit t.pri q ~tau) in
    Stats.charge_scan count;
    top

  (* Does q(D) restricted to weight >= tau contain at least k elements? *)
  let count_at_least t q ~tau ~k =
    t.probe_count <- t.probe_count + 1;
    match W.top_k_iter ~limit:k 0 (S.visit t.pri q ~tau) with
    | None -> true
    | Some (count, _) -> count >= k

  let query t q ~k =
    Stats.mark_query ();
    if k <= 0 then []
    else begin
      let n = Array.length t.elems in
      if 2 * k >= n then W.scan_top_k ~k q t.elems
      else begin
        (* Find the smallest index i (0-based in the descending weight
           array) such that count (>= weights_desc.(i)) >= k.  The
           predicate is monotone in i. *)
        let ok i = count_at_least t q ~tau:t.weights_desc.(i) ~k in
        match Topk_util.Search.binary_search_first ok 0 n with
        | None ->
            (* Fewer than k elements match in total. *)
            select_top_k t q ~tau:Float.neg_infinity ~k
        | Some i ->
            (* Distinct weights: the count at this threshold is exactly
               k, so the final query returns the answer set itself. *)
            select_top_k t q ~tau:t.weights_desc.(i) ~k
      end
    end
end
