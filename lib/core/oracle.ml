module Make (P : Sigs.PROBLEM) = struct
  module W = Sigs.Weight_order (P)

  type t = { elems : P.elem array }

  let build elems = { elems = Array.copy elems }

  let elements t = t.elems

  let matching t q =
    Array.to_list t.elems |> List.filter (fun e -> P.matches q e)

  (* The reference selection, not {!W.top_k}: the oracle must not share
     the kernel it checks. *)
  let top_k t q ~k = Topk_util.Select.top_k ~cmp:W.compare k (matching t q)

  let prioritized t q ~tau =
    matching t q
    |> List.filter (fun e -> P.weight e >= tau)
    |> W.sort_desc

  let max t q =
    List.fold_left
      (fun best e ->
        match best with
        | None -> Some e
        | Some b -> Some (W.max b e))
      None (matching t q)

  let count t q = List.length (matching t q)
end
