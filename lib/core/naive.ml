module Stats = Topk_em.Stats

module Make (P : Sigs.PROBLEM) = struct
  module P = P
  module W = Sigs.Weight_order (P)

  type t = { elems : P.elem array }

  let name = "naive-scan"

  let build ?params elems =
    ignore params;
    { elems = Array.copy elems }

  let size t = Array.length t.elems

  let space_words t = Array.length t.elems

  let query t q ~k =
    Stats.mark_query ();
    (* Same k-edge contract as every other TOPK instance: [k <= 0]
       answers [[]] without touching (or charging for) the data. *)
    if k <= 0 then []
    else W.scan_top_k ~k q t.elems
end
