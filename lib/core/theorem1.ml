module Stats = Topk_em.Stats
module Rng = Topk_util.Rng
module Tr = Topk_trace.Trace

module Make (S : Sigs.PRIORITIZED) = struct
  module P = S.P
  module W = Sigs.Weight_order (P)

  type level = {
    elems : P.elem array;  (* R_j *)
    pri : S.t option;      (* none on the last level, which is scanned *)
    rank_target : int;     (* ceil (8 lambda ln |R_(j-1)|); 0 at j = 0 *)
  }

  type rung = {
    chain : level array;  (* top-f chain built on the core-set R[i] *)
    rung_rank_target : int;  (* ceil (8 lambda ln n) for this core-set *)
    kk : int;  (* K = 2^(i-1) f *)
  }

  type t = {
    elems : P.elem array;  (* D, for the k = Omega(n) scan *)
    pri_d : S.t;           (* prioritized structure on D *)
    chain : level array;   (* R_0 = D, R_1, ... *)
    ladder : rung array;
    f : int;
    mutable fallback_count : int;
  }

  type info = {
    f : int;
    chain_levels : int;
    ladder_rungs : int;
    coreset_words : int;
  }

  let name = "theorem1(" ^ S.name ^ ")"

  (* A chain of nested core-sets, all with K = f, ending as soon as a
     level fits in 4f elements (scanned directly) or stops shrinking
     (degenerate inputs). *)
  let build_chain rng ~params ~f ground =
    let lambda = params.Params.lambda in
    let retries = params.Params.max_sample_retries in
    let rec go acc current rank_target =
      let n = Array.length current in
      if n <= 4 * f then
        List.rev ({ elems = current; pri = None; rank_target } :: acc)
      else begin
        let cs = Core_set.build rng ~lambda ~max_retries:retries ~k:f current in
        if Array.length cs.Core_set.elems >= n then
          (* No shrinkage (degenerate input): make this the last level,
             answered by scanning, so recursion always terminates. *)
          List.rev ({ elems = current; pri = None; rank_target } :: acc)
        else begin
          let level =
            { elems = current;
              pri = Some (S.build ~params current);
              rank_target }
          in
          go (level :: acc) cs.Core_set.elems cs.Core_set.rank_target
        end
      end
    in
    Array.of_list (go [] ground 0)

  let build ?(params = Params.default) elems =
    let n = Array.length elems in
    let rng = Rng.create params.Params.seed in
    let b = Params.block_size () in
    let f_eq9 =
      params.Params.coreset_scale
      *. 12. *. params.Params.lambda
      *. float_of_int b
      *. params.Params.q_pri n
    in
    (* Eq. (11): f must dominate every rank target in the structure. *)
    let f_eq11 = ceil (8. *. params.Params.lambda *. Params.ln n) in
    let f = max 1 (int_of_float (ceil (Float.max f_eq9 f_eq11))) in
    let elems = Array.copy elems in
    let pri_d = S.build ~params elems in
    let chain = build_chain rng ~params ~f elems in
    let ladder =
      let rec rungs acc kk =
        if kk > n then List.rev acc
        else begin
          let cs =
            Core_set.build rng ~lambda:params.Params.lambda
              ~max_retries:params.Params.max_sample_retries ~k:kk elems
          in
          let rung =
            {
              chain = build_chain rng ~params ~f cs.Core_set.elems;
              rung_rank_target = cs.Core_set.rank_target;
              kk;
            }
          in
          if kk > n / 2 then List.rev (rung :: acc)
          else rungs (rung :: acc) (2 * kk)
        end
      in
      if f > n then [||] else Array.of_list (rungs [] (2 * f))
    in
    { elems; pri_d; chain; ladder; f; fallback_count = 0 }

  let size t = Array.length t.elems

  let chain_words chain =
    Array.fold_left
      (fun acc (lev : level) ->
        acc + Array.length lev.elems
        + (match lev.pri with Some s -> S.space_words s | None -> 0))
      0 chain

  let space_words t =
    S.space_words t.pri_d + Array.length t.elems
    + chain_words t.chain
    + Array.fold_left (fun acc (r : rung) -> acc + chain_words r.chain) 0 t.ladder

  let info (t : t) =
    {
      f = t.f;
      chain_levels = Array.length t.chain;
      ladder_rungs = Array.length t.ladder;
      coreset_words =
        chain_words t.chain
        + Array.fold_left (fun acc (r : rung) -> acc + chain_words r.chain) 0 t.ladder;
    }

  let fallbacks t = t.fallback_count

  (* Cost-monitored top-[k] probe: [q]'s matches in [pri] streamed
     into a count and a k-heap, [None] once [limit + 1] are reported.
     It is reported to the active trace (if any) with its limit and
     All/Truncated outcome; the span's Stats delta is the probe's
     charged I/Os.  Tracing never charges Stats itself. *)
  let probe name pri q ~k ~limit =
    Tr.with_span name ~attrs:[ ("limit", Tr.Int limit) ] (fun () ->
        let tau = Float.neg_infinity in
        let r = W.top_k_iter ~limit k (S.visit pri q ~tau) in
        if Tr.is_enabled () then begin
          (match r with
          | Some (count, _) ->
              Tr.add_attr "outcome" (Tr.Str "all");
              Tr.add_attr "reported" (Tr.Int count)
          | None ->
              Tr.add_attr "outcome" (Tr.Str "truncated");
              Tr.add_attr "reported" (Tr.Int (limit + 1)));
          Tr.add_attr "tau" (Tr.Float tau)
        end;
        r)

  (* The [k] heaviest of the [count] candidates a round kept: their
     k-selection is charged as one pass over them. *)
  let kept (count, top) =
    Stats.charge_scan count;
    top

  (* Answer a top-f query on chain level [j]: returns the
     min (f, |q(R_j)|) heaviest elements of q(R_j), sorted descending. *)
  let rec top_f (t : t) (chain : level array) j q =
    let f = t.f in
    let lev = chain.(j) in
    Tr.with_span "t1.descend"
      ~attrs:[ ("level", Tr.Int j); ("coreset_size", Tr.Int (Array.length lev.elems)) ]
      (fun () ->
        match lev.pri with
        | None ->
            Tr.add_attr "path" (Tr.Str "scan");
            W.scan_top_k ~k:f q lev.elems
        | Some pri -> (
            match probe "t1.probe" pri q ~k:f ~limit:(4 * f) with
            | Some r -> kept r
            | None ->
                (* |q(R_j)| > 4f: fetch a rank-[f,4f] threshold from the
                   next core-set (Lemma 2), then report above it. *)
                let deeper = top_f t chain (j + 1) q in
                let rt = chain.(j + 1).rank_target in
                let threshold = List.nth_opt deeper (rt - 1) in
                let fallback () =
                  t.fallback_count <- t.fallback_count + 1;
                  Tr.event "t1.fallback" ~attrs:[ ("level", Tr.Int j) ];
                  W.scan_top_k ~k:f q lev.elems
                in
                (match threshold with
                 | None -> fallback ()
                 | Some e -> (
                     match W.top_k_iter f (S.visit pri q ~tau:(P.weight e)) with
                     | Some ((count, _) as r) when count >= f -> kept r
                     | Some _ | None -> fallback ()))))

  let query (t : t) q ~k =
    Stats.mark_query ();
    if k <= 0 then []
    else
      Tr.with_span "t1.query" ~attrs:[ ("k", Tr.Int k) ] (fun () ->
          let n = Array.length t.elems in
          if 2 * k >= n then begin
            Tr.add_attr "path" (Tr.Str "scan");
            W.scan_top_k ~k q t.elems
          end
          else if k <= t.f then begin
            Tr.add_attr "path" (Tr.Str "chain");
            let top = top_f t t.chain 0 q in
            kept (List.length top, W.top_k k top)
          end
          else begin
            Tr.add_attr "path" (Tr.Str "ladder");
            (* Large k: locate the ladder rung with K in [k, 2k). *)
            let rung =
              let found = ref None in
              Array.iter
                (fun r -> if !found = None && r.kk >= k then found := Some r)
                t.ladder;
              !found
            in
            match rung with
            | None ->
                (* k exceeds every rung (only possible on tiny inputs). *)
                W.scan_top_k ~k q t.elems
            | Some rung -> (
                let kk = rung.kk in
                match probe "t1.probe" t.pri_d q ~k ~limit:(4 * kk) with
                | Some r -> kept r
                | None ->
                    let fallback () =
                      t.fallback_count <- t.fallback_count + 1;
                      Tr.event "t1.fallback" ~attrs:[ ("rung", Tr.Int kk) ];
                      W.scan_top_k ~k q t.elems
                    in
                    let top = top_f t rung.chain 0 q in
                    (match List.nth_opt top (rung.rung_rank_target - 1) with
                     | None -> fallback ()
                     | Some e -> (
                         match
                           W.top_k_iter k (S.visit t.pri_d q ~tau:(P.weight e))
                         with
                         | Some ((count, _) as r) when count >= k -> kept r
                         | Some _ | None -> fallback ())))
          end)
end
