module Stats = Topk_em.Stats
module Rng = Topk_util.Rng

module Make
    (S : Sigs.DYNAMIC_PRIORITIZED)
    (M : Sigs.DYNAMIC_MAX with module P = S.P) =
struct
  module P = S.P
  module W = Sigs.Weight_order (P)

  type rung = {
    max_structure : M.t;
    ki : int;
    rate : float;  (* 1 / K_i *)
  }

  type t = {
    params : Params.t;
    rng : Rng.t;
    pri : S.t;
    elems : (int, P.elem) Hashtbl.t;  (* current live set *)
    memberships : (int, int list) Hashtbl.t;  (* id -> rung indices *)
    mutable ladder : rung array;
    mutable n_at_build : int;  (* live size when the ladder was sampled *)
    mutable resample_count : int;
    mutable rounds_run : int;
    mutable rounds_failed : int;
  }

  let name = "theorem2-dynamic(" ^ S.name ^ "+" ^ M.name ^ ")"

  let ladder_rates params n =
    let b = Params.block_size () in
    let k1 =
      Float.max 1.
        (params.Params.coreset_scale *. float_of_int b
         *. params.Params.q_max (max 2 n))
    in
    let rec go acc k_f =
      if k_f > float_of_int n /. 4. then List.rev acc
      else go (k_f :: acc) (k_f *. (1. +. params.Params.sigma))
    in
    go [] k1

  let sample_ladder t =
    let n = Hashtbl.length t.elems in
    let rates = ladder_rates t.params n in
    t.memberships |> Hashtbl.reset;
    let rungs =
      List.map
        (fun k_f ->
          { max_structure = M.build ~params:t.params [||];
            ki = max 2 (int_of_float (ceil k_f));
            rate = 1. /. k_f })
        rates
    in
    let ladder = Array.of_list rungs in
    Hashtbl.iter
      (fun id e ->
        let mine = ref [] in
        Array.iteri
          (fun i rung ->
            if Rng.bernoulli t.rng rung.rate then begin
              M.insert rung.max_structure e;
              mine := i :: !mine
            end)
          ladder;
        if !mine <> [] then Hashtbl.replace t.memberships id !mine)
      t.elems;
    t.ladder <- ladder;
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
        resample_count = -1;  (* the initial sample is not a "resample" *)
        rounds_run = 0;
        rounds_failed = 0;
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
        (fun acc r -> acc + M.space_words r.max_structure)
        0 t.ladder

  let rungs t = Array.length t.ladder

  let resamples t = max 0 t.resample_count

  let rounds_run t = t.rounds_run

  let rounds_failed t = t.rounds_failed

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
      let mine = ref [] in
      Array.iteri
        (fun i rung ->
          if Rng.bernoulli t.rng rung.rate then begin
            M.insert rung.max_structure e;
            mine := i :: !mine
          end)
        t.ladder;
      if !mine <> [] then Hashtbl.replace t.memberships id !mine;
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
             (fun i -> M.delete t.ladder.(i).max_structure e)
             indices;
           Hashtbl.remove t.memberships id
       | None -> ());
      maybe_resample t
    end

  let scan_all_top t q ~k =
    Stats.charge_scan (Hashtbl.length t.elems);
    let matching = ref [] in
    Hashtbl.iter
      (fun _ e -> if P.matches q e then matching := e :: !matching)
      t.elems;
    W.top_k k !matching

  let query t q ~k =
    Stats.mark_query ();
    if k <= 0 then []
    else begin
      let h = Array.length t.ladder in
      let k1 = if h = 0 then 1 else t.ladder.(0).ki in
      let kk = max k k1 in
      if h = 0 || kk > t.ladder.(h - 1).ki then scan_all_top t q ~k
      else begin
        let start = ref 0 in
        while t.ladder.(!start).ki < kk do incr start done;
        let rec round j =
          if j >= h then scan_all_top t q ~k
          else begin
            t.rounds_run <- t.rounds_run + 1;
            let rung = t.ladder.(j) in
            let kj = rung.ki in
            (* As in Theorem 2: stream each visit into a count and a
               k-heap, then charge one pass over a kept candidate set. *)
            match
              W.top_k_iter ~limit:(4 * kj) k
                (S.visit t.pri q ~tau:Float.neg_infinity)
            with
            | Some (count, top) ->
                Stats.charge_scan count;
                top
            | None -> (
                match M.query rung.max_structure q with
                | None ->
                    t.rounds_failed <- t.rounds_failed + 1;
                    round (j + 1)
                | Some e -> (
                    match
                      W.top_k_iter ~limit:(4 * kj) k
                        (S.visit t.pri q ~tau:(P.weight e))
                    with
                    | Some (count, top) when count > kj ->
                        Stats.charge_scan count;
                        top
                    | Some _ | None ->
                        t.rounds_failed <- t.rounds_failed + 1;
                        round (j + 1)))
          end
        in
        round !start
      end
    end
end
