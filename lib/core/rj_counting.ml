module Stats = Topk_em.Stats

module Make (S : Sigs.PRIORITIZED) (C : Sigs.COUNTING with module P = S.P) =
struct
  module P = S.P
  module W = Sigs.Weight_order (P)

  type node =
    | Leaf of P.elem
    | Node of {
        reporter : S.t;
        counter : C.t;
        left : node;
        right : node;
      }

  type t = {
    root : node option;
    elems : P.elem array;  (* weight descending, for the k = Omega(n) scan *)
  }

  let name = "rj-counting(" ^ S.name ^ "+" ^ C.name ^ ")"

  let rec build_node ?params sorted lo hi =
    if hi - lo = 1 then Leaf sorted.(lo)
    else begin
      let mid = (lo + hi) / 2 in
      let range = Array.sub sorted lo (hi - lo) in
      Node
        {
          reporter = S.build ?params range;
          counter = C.build range;
          left = build_node ?params sorted lo mid;
          right = build_node ?params sorted mid hi;
        }
    end

  let build ?params elems =
    let sorted = Array.copy elems in
    Array.sort W.compare_desc sorted;
    let root =
      if Array.length sorted = 0 then None
      else Some (build_node ?params sorted 0 (Array.length sorted))
    in
    { root; elems = sorted }

  let size t = Array.length t.elems

  let rec node_words = function
    | Leaf _ -> 1
    | Node { reporter; counter; left; right } ->
        S.space_words reporter + C.space_words counter + node_words left
        + node_words right

  let space_words t =
    Array.length t.elems
    + match t.root with None -> 0 | Some root -> node_words root

  let count node q =
    match node with
    | Leaf e -> if P.matches q e then 1 else 0
    | Node { counter; _ } -> C.count counter q

  let query t q ~k =
    Stats.mark_query ();
    if k <= 0 then []
    else begin
      match t.root with
      | None -> []
      | Some root ->
          let n = Array.length t.elems in
          if 2 * k >= n then W.scan_top_k ~k q t.elems
          else begin
            let total = count root q in
            (* The answer's candidates are streamed into a k-heap;
               their k-selection is charged as one pass over them. *)
            let select iter =
              let reported, top = W.top_k_count k iter in
              Stats.charge_scan reported;
              top
            in
            if total <= k then
              (* Everything matching is wanted: one full report. *)
              select (fun sink ->
                  match root with
                  | Leaf e -> if P.matches q e then sink.Sigs.one e
                  | Node { reporter; _ } ->
                      S.visit reporter q ~tau:Float.neg_infinity sink)
            else
              (* Descend for the rank of the k-th heaviest match; the
                 skipped left subtrees form the canonical prefix. *)
              select (fun sink ->
                  let leaf e =
                    if P.matches q e then begin
                      Stats.charge_scan 1;
                      sink.Sigs.one e
                    end
                  in
                  let rec descend node remaining =
                    match node with
                    | Leaf e ->
                        (* remaining = 1 and this element matches. *)
                        leaf e
                    | Node { left; right; _ } ->
                        let cl = count left q in
                        if cl >= remaining then descend left remaining
                        else begin
                          (match left with
                           | Leaf e -> leaf e
                           | Node { reporter; _ } ->
                               S.visit reporter q ~tau:Float.neg_infinity sink);
                          descend right (remaining - cl)
                        end
                  in
                  descend root k)
          end
    end
end
