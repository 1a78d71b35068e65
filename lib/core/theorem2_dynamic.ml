module Stats = Topk_em.Stats
module Rng = Topk_util.Rng

module Make
    (S : Sigs.DYNAMIC_PRIORITIZED)
    (M : Sigs.DYNAMIC_MAX with module P = S.P) =
struct
  module P = S.P
  module W = Sigs.Weight_order (P)
  module R = Theorem2.Walk (S) (M)

  type t = {
    params : Params.t;
    rng : Rng.t;
    pri : S.t;
    elems : (int, P.elem) Hashtbl.t;  (* current live set *)
    memberships : (int, int list) Hashtbl.t;  (* id -> rung indices *)
    mutable ladder : M.t Theorem2.rung array;
    mutable n_at_build : int;  (* live size when the ladder was sampled *)
    mutable resample_count : int;
    rounds : Theorem2.rounds;
  }

  let name = "theorem2-dynamic(" ^ S.name ^ "+" ^ M.name ^ ")"

  (* Join each rung's sample independently with probability 1/K_i;
     remember which ones so a delete undoes exactly those. *)
  let join t e =
    let mine = ref [] in
    Array.iteri
      (fun i (rung : _ Theorem2.rung) ->
        if Rng.bernoulli t.rng rung.rate then begin
          M.insert rung.max_structure e;
          mine := i :: !mine
        end)
      t.ladder;
    if !mine <> [] then Hashtbl.replace t.memberships (P.id e) !mine

  let sample_ladder t =
    let n = Hashtbl.length t.elems in
    Hashtbl.reset t.memberships;
    t.ladder <-
      Theorem2.ladder t.params n ~sample:(fun _ ->
          M.build ~params:t.params [||]);
    Hashtbl.iter (fun _ e -> join t e) t.elems;
    t.n_at_build <- n

  let build ?(params = Params.default) elems =
    let t =
      {
        params;
        rng = Rng.create (params.Params.seed + 2);
        pri = S.build ~params elems;
        elems = Hashtbl.create (max 16 (Array.length elems));
        memberships = Hashtbl.create 64;
        ladder = [||];
        n_at_build = 0;
        resample_count = 0;
        rounds = { Theorem2.run = 0; failed = 0 };
      }
    in
    Array.iter (fun e -> Hashtbl.replace t.elems (P.id e) e) elems;
    sample_ladder t;
    t

  let size t = Hashtbl.length t.elems

  let space_words t =
    S.space_words t.pri + Hashtbl.length t.elems
    + Hashtbl.length t.memberships
    + Array.fold_left
        (fun acc (r : _ Theorem2.rung) -> acc + M.space_words r.max_structure)
        0 t.ladder

  let rungs t = Array.length t.ladder

  let resamples t = t.resample_count

  let rounds_run t = t.rounds.run

  let rounds_failed t = t.rounds.failed

  let maybe_resample t =
    let n = Hashtbl.length t.elems in
    if n > 2 * t.n_at_build || (t.n_at_build > 16 && 2 * n < t.n_at_build)
    then begin
      t.resample_count <- t.resample_count + 1;
      sample_ladder t
    end

  let insert t e =
    let id = P.id e in
    if not (Hashtbl.mem t.elems id) then begin
      Hashtbl.replace t.elems id e;
      S.insert t.pri e;
      join t e;
      maybe_resample t
    end

  let delete t e =
    let id = P.id e in
    if Hashtbl.mem t.elems id then begin
      Hashtbl.remove t.elems id;
      S.delete t.pri e;
      (match Hashtbl.find_opt t.memberships id with
       | Some indices ->
           List.iter
             (fun i -> M.delete t.ladder.(i).Theorem2.max_structure e)
             indices;
           Hashtbl.remove t.memberships id
       | None -> ());
      maybe_resample t
    end

  let query t q ~k =
    let k1 =
      if Array.length t.ladder = 0 then 1 else t.ladder.(0).Theorem2.ki
    in
    R.query t.rounds t.ladder ~k1 t.pri q ~k ~scan:(fun q ~k ->
        Stats.charge_scan (Hashtbl.length t.elems);
        let matching = ref [] in
        Hashtbl.iter
          (fun _ e -> if P.matches q e then matching := e :: !matching)
          t.elems;
        W.top_k k !matching)
end
