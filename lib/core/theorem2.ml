module Stats = Topk_em.Stats
module Rng = Topk_util.Rng
module Tr = Topk_trace.Trace

type 'm rung = {
  max_structure : 'm;  (* on the (1/K_i)-sample R_i *)
  ki : int;            (* ceil of K_i *)
  rate : float;        (* 1 / K_i *)
}

type rounds = { mutable run : int; mutable failed : int }

(* K_1 = B . Q_max(n), at least 1. *)
let base_rank params n =
  Float.max 1.
    (params.Params.coreset_scale
     *. float_of_int (Params.block_size ())
     *. params.Params.q_max n)

let ladder params n ~sample =
  let rec rungs acc k_f =
    if k_f > float_of_int n /. 4. then Array.of_list (List.rev acc)
    else begin
      let ki = max 2 (int_of_float (ceil k_f)) in
      let rung = { max_structure = sample k_f; ki; rate = 1. /. k_f } in
      rungs (rung :: acc) (k_f *. (1. +. params.Params.sigma))
    end
  in
  rungs [] (base_rank params n)

module Walk (S : Sigs.PRIORITIZED) (M : Sigs.MAX with module P = S.P) = struct
  module P = S.P
  module W = Sigs.Weight_order (P)

  let query rounds ladder ~k1 pri ~scan q ~k =
    Stats.mark_query ();
    if k <= 0 then []
    else
      Tr.with_span "t2.query" ~attrs:[ ("k", Tr.Int k) ] (fun () ->
          let h = Array.length ladder in
          (* Queries below K_1 are answered as top-K_1 then k-selected. *)
          let kk = max k k1 in
          if h = 0 || kk > ladder.(h - 1).ki then begin
            (* Past the ladder: k = Omega(n), scan D. *)
            Tr.add_attr "path" (Tr.Str "scan");
            scan q ~k
          end
          else begin
            Tr.add_attr "path" (Tr.Str "ladder");
            (* Smallest rung with K_j >= kk. *)
            let start = ref 0 in
            while ladder.(!start).ki < kk do incr start done;
            let rec round j =
              if j >= h then begin
                Tr.event "t2.ladder_exhausted";
                scan q ~k
              end
              else begin
                rounds.run <- rounds.run + 1;
                let rung = ladder.(j) in
                let kj = rung.ki in
                Tr.with_span "t2.round"
                  ~attrs:[ ("rung", Tr.Int j); ("ki", Tr.Int kj) ]
                  (fun () ->
                    (* Each visit streams into a count and a k-heap; a
                       self-terminated one is then charged one pass over
                       its [count] candidates, as k-selection over them. *)
                    match
                      W.top_k_iter ~limit:(4 * kj) k
                        (S.visit pri q ~tau:Float.neg_infinity)
                    with
                    | Some (count, top) ->
                        (* Step 1: |q(D)| <= 4 K_j — solved outright. *)
                        Tr.add_attr "outcome" (Tr.Str "solved");
                        Stats.charge_scan count;
                        Some top
                    | None -> (
                        (* Step 2: threshold from the max of q(R_j). *)
                        match M.query rung.max_structure q with
                        | None ->
                            (* q(R_j) empty: dummy threshold, fail. *)
                            Tr.add_attr "outcome" (Tr.Str "empty_sample");
                            rounds.failed <- rounds.failed + 1;
                            None
                        | Some e -> (
                            (* Step 3: candidates above the threshold. *)
                            Tr.add_attr "threshold" (Tr.Float (P.weight e));
                            match
                              W.top_k_iter ~limit:(4 * kj) k
                                (S.visit pri q ~tau:(P.weight e))
                            with
                            | Some (count, top) when count > kj ->
                                (* Step 5: success. *)
                                Tr.add_attr "outcome" (Tr.Str "success");
                                Tr.add_attr "rank_observed" (Tr.Int count);
                                Stats.charge_scan count;
                                Some top
                            | Some (count, _) ->
                                (* Step 4: rank missed (K_j, 4 K_j]. *)
                                Tr.add_attr "outcome" (Tr.Str "rank_missed");
                                Tr.add_attr "rank_observed" (Tr.Int count);
                                rounds.failed <- rounds.failed + 1;
                                None
                            | None ->
                                Tr.add_attr "outcome" (Tr.Str "rank_missed");
                                rounds.failed <- rounds.failed + 1;
                                None)))
                |> function
                | Some answer -> answer
                | None -> round (j + 1)
              end
            in
            round !start
          end)
end

module Make (S : Sigs.PRIORITIZED) (M : Sigs.MAX with module P = S.P) = struct
  module P = S.P
  module W = Sigs.Weight_order (P)
  module R = Walk (S) (M)

  type t = {
    elems : P.elem array;
    pri_d : S.t;
    ladder : M.t rung array;
    k1 : int;  (* B . Q_max(n), the smallest rung rank *)
    rounds : rounds;
  }

  type info = {
    rungs : int;
    k1 : int;
    sample_words : int;
    pri_words : int;
  }

  let name = "theorem2(" ^ S.name ^ "+" ^ M.name ^ ")"

  let build ?(params = Params.default) elems =
    let n = Array.length elems in
    let rng = Rng.create (params.Params.seed + 1) in
    let elems = Array.copy elems in
    let pri_d = S.build ~params elems in
    let ladder =
      ladder params n ~sample:(fun k_f ->
          M.build ~params (Rng.sample rng ~p:(1. /. k_f) elems))
    in
    {
      elems;
      pri_d;
      ladder;
      k1 = max 1 (int_of_float (ceil (base_rank params n)));
      rounds = { run = 0; failed = 0 };
    }

  let size t = Array.length t.elems

  let sample_words t =
    Array.fold_left
      (fun acc r -> acc + M.space_words r.max_structure)
      0 t.ladder

  let space_words t =
    Array.length t.elems + S.space_words t.pri_d + sample_words t

  let info t =
    {
      rungs = Array.length t.ladder;
      k1 = t.k1;
      sample_words = sample_words t;
      pri_words = S.space_words t.pri_d;
    }

  let rounds_run t = t.rounds.run

  let rounds_failed t = t.rounds.failed

  let query t q ~k =
    R.query t.rounds t.ladder ~k1:t.k1 t.pri_d q ~k ~scan:(fun q ~k ->
        W.scan_top_k ~k q t.elems)
end
