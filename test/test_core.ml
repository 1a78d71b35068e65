(* Tests for the reduction framework itself: the sampling lemmas, the
   core-set construction, the dyadic prefix decomposition, and the
   reduction functors applied to a minimal self-contained problem
   (1D dominance: elements on a line, predicate "position <= x"). *)

module Rng = Topk_util.Rng
module Rank_sampling = Topk_core.Rank_sampling
module Core_set = Topk_core.Core_set
module Prefix_blocks = Topk_core.Prefix_blocks
module Params = Topk_core.Params
module Sigs = Topk_core.Sigs
module Pst = Topk_pst.Pst

(* --- The inline problem: 1D dominance --- *)

module Dot = struct
  type t = { pos : float; w : float; uid : int }

  let make uid pos w = { pos; w; uid }
end

module Dot_problem = struct
  type elem = Dot.t

  type query = float

  let weight (e : elem) = e.Dot.w

  let id (e : elem) = e.Dot.uid

  let matches q (e : elem) = e.Dot.pos <= q

  let pp_elem ppf (e : elem) =
    Format.fprintf ppf "%g@%g#%d" e.Dot.pos e.Dot.w e.Dot.uid

  let pp_query ppf q = Format.fprintf ppf "pos<=%g" q
end

(* Prioritized 1D dominance: one PST keyed on position. *)
module Dot_pri = struct
  module P = Dot_problem

  type t = Dot.t Pst.t

  let name = "dot-pst"

  let build ?params:_ elems =
    Pst.build ~key:(fun (e : Dot.t) -> e.Dot.pos)
      ~weight:(fun (e : Dot.t) -> e.Dot.w)
      elems

  let size = Pst.size

  let space_words = Pst.space_words

  let visit t q ~tau { Sigs.one; _ } =
    Pst.query t ~side:Pst.Below ~bound:q ~tau one

  let query t q ~tau = Sigs.collect (visit t q ~tau)

  let query_monitored t q ~tau ~limit = Sigs.monitor ~limit (visit t q ~tau)
end

(* Max 1D dominance: prefix maxima over the position order. *)
module Dot_max = struct
  module P = Dot_problem

  type t = {
    pos : float array;          (* ascending *)
    prefix_best : Dot.t array;  (* heaviest among pos.(0..i) *)
  }

  let name = "dot-prefix-max"

  let build ?params:_ elems =
    let sorted = Array.copy elems in
    Array.sort
      (fun (a : Dot.t) (b : Dot.t) -> Float.compare a.Dot.pos b.Dot.pos)
      sorted;
    let n = Array.length sorted in
    let prefix_best = Array.make n (Dot.make 0 0. 0.) in
    let best = ref None in
    Array.iteri
      (fun i (e : Dot.t) ->
        (match !best with
         | None -> best := Some e
         | Some b -> if e.Dot.w > b.Dot.w then best := Some e);
        prefix_best.(i) <- Option.get !best)
      sorted;
    { pos = Array.map (fun (e : Dot.t) -> e.Dot.pos) sorted; prefix_best }

  let size t = Array.length t.pos

  let space_words t = 2 * Array.length t.pos

  let query t q =
    Topk_em.Stats.charge_ios 1;
    let m = Topk_util.Search.upper_bound ~cmp:Float.compare t.pos q in
    if m = 0 then None else Some t.prefix_best.(m - 1)
  end

(* Exact counting for 1D dominance: predecessor rank in the position
   order. *)
module Dot_count = struct
  module P = Dot_problem

  type t = float array  (* positions, ascending *)

  let name = "dot-count"

  let build elems =
    let pos = Array.map (fun (e : Dot.t) -> e.Dot.pos) elems in
    Array.sort Float.compare pos;
    pos

  let size t = Array.length t

  let space_words t = Array.length t

  let count t q =
    Topk_em.Stats.charge_ios 1;
    Topk_util.Search.upper_bound ~cmp:Float.compare t q
end

module Dot_oracle = Topk_core.Oracle.Make (Dot_problem)
module Dot_t1 = Topk_core.Theorem1.Make (Dot_pri)
module Dot_t2 = Topk_core.Theorem2.Make (Dot_pri) (Dot_max)
module Dot_rj = Topk_core.Baseline_rj.Make (Dot_pri)
module Dot_rjc = Topk_core.Rj_counting.Make (Dot_pri) (Dot_count)
module Dot_synth_max = Topk_core.Max_from_pri.Make (Dot_pri)
module Dot_t2_synth = Topk_core.Theorem2.Make (Dot_pri) (Dot_synth_max)
module Dot_dyn_pri = Topk_core.Bentley_saxe.Make (Dot_pri)

let random_dots rng n =
  let weights = Topk_util.Gen.distinct_weights rng n in
  Array.init n (fun i -> Dot.make (i + 1) (Rng.uniform rng) weights.(i))

(* --- Lemma 1 --- *)

let test_lemma1_failure_rate () =
  let rng = Rng.create 401 in
  let n = 20_000 in
  let arr = Array.init n (fun i -> i) in
  Rng.shuffle rng arr;
  let delta = 0.2 in
  List.iter
    (fun k ->
      let p = Rank_sampling.min_p ~k ~delta in
      let failures = ref 0 in
      let trials = 300 in
      for _ = 1 to trials do
        match Rank_sampling.lemma1_trial rng ~cmp:Int.compare ~k ~p arr with
        | Rank_sampling.Ok_rank -> ()
        | _ -> incr failures
      done;
      let rate = float_of_int !failures /. float_of_int trials in
      (* The lemma promises <= delta; leave slack for the finite trial
         count. *)
      if rate > delta +. 0.05 then
        Alcotest.failf "lemma1 failure rate %.3f > delta %.3f (k=%d)" rate
          delta k)
    [ 100; 500; 2000 ]

let test_lemma1_parameters () =
  Alcotest.check_raises "k = 0"
    (Invalid_argument "Rank_sampling.min_p: k must be >= 1") (fun () ->
      ignore (Rank_sampling.min_p ~k:0 ~delta:0.5));
  Alcotest.check_raises "delta = 0"
    (Invalid_argument "Rank_sampling.min_p: delta must be in (0,1)")
    (fun () -> ignore (Rank_sampling.min_p ~k:5 ~delta:0.));
  (* kp >= 3 ln (3/delta) by construction (unless clamped at 1). *)
  let k = 1000 and delta = 0.1 in
  let p = Rank_sampling.min_p ~k ~delta in
  Alcotest.(check bool) "working condition" true
    (float_of_int k *. p >= 3. *. log (3. /. delta) -. 1e-9)

(* --- Lemma 3 --- *)

let test_lemma3_success_rate () =
  let rng = Rng.create 403 in
  let n = 50_000 in
  let arr = Array.init n (fun i -> i) in
  Rng.shuffle rng arr;
  List.iter
    (fun kk ->
      let successes = ref 0 in
      let trials = 2000 in
      for _ = 1 to trials do
        match Rank_sampling.lemma3_trial rng ~cmp:Int.compare ~kk arr with
        | Rank_sampling.Ok_rank -> incr successes
        | _ -> ()
      done;
      let rate = float_of_int !successes /. float_of_int trials in
      if rate < 0.09 then
        Alcotest.failf "lemma3 success rate %.3f < 0.09 (K=%g)" rate kk)
    [ 10.; 100.; 1000. ]

let test_rank_of () =
  let arr = [| 5; 9; 1; 7 |] in
  Alcotest.(check int) "rank of max" 1
    (Rank_sampling.rank_of ~cmp:Int.compare arr 9);
  Alcotest.(check int) "rank of min" 4
    (Rank_sampling.rank_of ~cmp:Int.compare arr 1)

(* --- Lemma 2 (core-sets) --- *)

let test_core_set_size_bound () =
  let rng = Rng.create 407 in
  let n = 30_000 in
  let ground = Array.init n (fun i -> i) in
  List.iter
    (fun k ->
      let cs = Core_set.build rng ~lambda:1. ~k ground in
      let bound = Core_set.size_bound ~lambda:1. ~k ~n in
      Alcotest.(check bool)
        (Printf.sprintf "size %d <= bound %d (K=%d)"
           (Array.length cs.Core_set.elems) bound k)
        true
        (Array.length cs.Core_set.elems <= bound))
    [ 100; 1000; 5000 ]

let test_core_set_degenerate () =
  let rng = Rng.create 409 in
  let ground = Array.init 50 (fun i -> i) in
  (* K below 4 lambda ln n: p saturates, core-set = copy. *)
  let cs = Core_set.build rng ~lambda:2. ~k:2 ground in
  Alcotest.(check int) "degenerate copy" 50 (Array.length cs.Core_set.elems);
  Alcotest.(check (float 0.)) "p = 1" 1. cs.Core_set.p

(* Lemma 2's rank-capture property, validated over every distinct
   outcome of the 1D dominance problem (there are n + 1 of them, so
   the union bound in the proof is exactly exercised). *)
let test_core_set_rank_capture () =
  let rng = Rng.create 411 in
  let n = 8_000 in
  let dots = random_dots rng n in
  let kk = 200 in
  let cs = Core_set.build rng ~lambda:1. ~k:kk dots in
  let cmp (a : Dot.t) (b : Dot.t) =
    match Float.compare a.Dot.w b.Dot.w with
    | 0 -> Int.compare a.Dot.uid b.Dot.uid
    | c -> c
  in
  let sorted_pos = Array.map (fun (d : Dot.t) -> d.Dot.pos) dots in
  Array.sort Float.compare sorted_pos;
  let violations = ref 0 and checked = ref 0 in
  (* Every prefix of the position order is one distinct outcome. *)
  for m = 4 * kk to n - 1 do
    if m mod 100 = 0 then begin
      incr checked;
      let q = sorted_pos.(m - 1) in
      let q_d = Array.of_list (List.filter (fun (d : Dot.t) -> d.Dot.pos <= q)
                                 (Array.to_list dots)) in
      let q_r = Array.of_list (List.filter (fun (d : Dot.t) -> d.Dot.pos <= q)
                                 (Array.to_list cs.Core_set.elems)) in
      if Array.length q_r < cs.Core_set.rank_target then incr violations
      else begin
        let e =
          Topk_util.Select.nth_largest ~cmp (Array.copy q_r)
            cs.Core_set.rank_target
        in
        let rank = Rank_sampling.rank_of ~cmp q_d e in
        if rank < kk || rank > 4 * kk then incr violations
      end
    end
  done;
  Alcotest.(check bool)
    (Printf.sprintf "%d violations over %d outcomes" !violations !checked)
    true
    (float_of_int !violations <= 0.05 *. float_of_int !checked)

(* --- Prefix blocks --- *)

let test_prefix_blocks_cover_exactly () =
  let rng = Rng.create 413 in
  for _ = 1 to 100 do
    let n = 1 + Rng.int rng 3000 in
    let t = Prefix_blocks.build ~n ~build:(fun o len -> (o, len)) in
    let m = Rng.int rng (n + 1) in
    let blocks = Prefix_blocks.query_prefix t m in
    (* Blocks must tile [0, m) in order, disjointly. *)
    let covered =
      List.fold_left
        (fun expected_o (o, len) ->
          if o <> expected_o then Alcotest.failf "gap at %d (got %d)" expected_o o;
          o + len)
        0 blocks
    in
    Alcotest.(check int) "covers exactly m" m covered;
    let max_blocks = 1 + int_of_float (Float.log2 (float_of_int (max 2 n))) in
    Alcotest.(check bool)
      (Printf.sprintf "block count %d <= log bound %d" (List.length blocks)
         max_blocks)
      true
      (List.length blocks <= max_blocks + 1)
  done

let test_prefix_blocks_edges () =
  let t = Prefix_blocks.build ~n:0 ~build:(fun o len -> (o, len)) in
  Alcotest.(check int) "empty" 0 (List.length (Prefix_blocks.query_prefix t 5));
  let t = Prefix_blocks.build ~n:7 ~build:(fun o len -> (o, len)) in
  Alcotest.(check int) "m = 0" 0 (List.length (Prefix_blocks.query_prefix t 0));
  let all = Prefix_blocks.query_prefix t 100 in
  Alcotest.(check int) "m clamped to n" 7
    (List.fold_left (fun acc (_, len) -> acc + len) 0 all)

(* --- Weight order --- *)

module W = Sigs.Weight_order (Dot_problem)

let test_weight_order () =
  let a = Dot.make 1 0. 5. and b = Dot.make 2 0. 5. and c = Dot.make 3 0. 9. in
  Alcotest.(check bool) "ties by id" true (W.compare a b < 0);
  Alcotest.(check int) "top_k order" 3
    (match W.top_k 2 [ a; b; c ] with
     | x :: _ -> x.Dot.uid
     | [] -> -1);
  Alcotest.(check int) "sort_desc length" 3 (List.length (W.sort_desc [ a; b; c ]))

(* --- The reductions on the inline problem --- *)

let dot_params =
  {
    Params.default with
    Params.lambda = 1.;
    q_pri = Params.log2;
    q_max = Params.log2;
  }

let test_dot_reductions_match_oracle () =
  let rng = Rng.create 419 in
  List.iter
    (fun n ->
      let dots = random_dots rng n in
      let oracle = Dot_oracle.build dots in
      let t1 = Dot_t1.build ~params:dot_params dots in
      let t2 = Dot_t2.build ~params:dot_params dots in
      let rj = Dot_rj.build dots in
      for _ = 1 to 20 do
        let q = Rng.uniform rng in
        List.iter
          (fun k ->
            let expected =
              List.map (fun (d : Dot.t) -> d.Dot.uid)
                (Dot_oracle.top_k oracle q ~k)
            in
            let got f = List.map (fun (d : Dot.t) -> d.Dot.uid) (f ()) in
            Alcotest.(check (list int)) "t1" expected
              (got (fun () -> Dot_t1.query t1 q ~k));
            Alcotest.(check (list int)) "t2" expected
              (got (fun () -> Dot_t2.query t2 q ~k));
            Alcotest.(check (list int)) "rj" expected
              (got (fun () -> Dot_rj.query rj q ~k)))
          [ 1; 2; 17; n / 4; n ]
      done)
    [ 10; 100; 1500 ]

let test_counting_reduction_matches_oracle () =
  let rng = Rng.create 431 in
  List.iter
    (fun n ->
      let dots = random_dots rng n in
      let oracle = Dot_oracle.build dots in
      let rjc = Dot_rjc.build dots in
      for _ = 1 to 20 do
        let q = Rng.uniform rng in
        List.iter
          (fun k ->
            Alcotest.(check (list int))
              "rj-counting"
              (List.map (fun (d : Dot.t) -> d.Dot.uid)
                 (Dot_oracle.top_k oracle q ~k))
              (List.map (fun (d : Dot.t) -> d.Dot.uid)
                 (Dot_rjc.query rjc q ~k)))
          [ 1; 2; 13; n / 3; n; n + 5 ]
      done)
    [ 1; 2; 30; 700 ]

let test_synth_max_and_t2 () =
  let rng = Rng.create 433 in
  let dots = random_dots rng 600 in
  let oracle = Dot_oracle.build dots in
  let m = Dot_synth_max.build dots in
  let t2s = Dot_t2_synth.build ~params:dot_params dots in
  for _ = 1 to 50 do
    let q = Rng.uniform rng in
    Alcotest.(check (option int))
      "synthesized max"
      (Option.map (fun (d : Dot.t) -> d.Dot.uid) (Dot_oracle.max oracle q))
      (Option.map (fun (d : Dot.t) -> d.Dot.uid) (Dot_synth_max.query m q));
    List.iter
      (fun k ->
        Alcotest.(check (list int))
          "theorem2 over synthesized max"
          (List.map (fun (d : Dot.t) -> d.Dot.uid)
             (Dot_oracle.top_k oracle q ~k))
          (List.map (fun (d : Dot.t) -> d.Dot.uid) (Dot_t2_synth.query t2s q ~k)))
      [ 1; 9; 300 ]
  done

let test_bentley_saxe_generic () =
  let rng = Rng.create 437 in
  let s = Dot_dyn_pri.build [||] in
  let live = ref [] in
  let next = ref 0 in
  for _ = 1 to 500 do
    if !next < 20 || Rng.bernoulli rng 0.6 then begin
      incr next;
      let d = Dot.make !next (Rng.uniform rng) (float_of_int !next) in
      live := d :: !live;
      Dot_dyn_pri.insert s d
    end
    else begin
      let arr = Array.of_list !live in
      let victim = arr.(Rng.int rng (Array.length arr)) in
      live := List.filter (fun (d : Dot.t) -> d.Dot.uid <> victim.Dot.uid) !live;
      Dot_dyn_pri.delete s victim
    end
  done;
  Alcotest.(check int) "live count" (List.length !live) (Dot_dyn_pri.live s);
  for _ = 1 to 30 do
    let q = Rng.uniform rng in
    let tau = Rng.float rng 500. in
    let expected =
      List.filter (fun (d : Dot.t) -> d.Dot.pos <= q && d.Dot.w >= tau) !live
      |> List.map (fun (d : Dot.t) -> d.Dot.uid)
      |> List.sort Int.compare
    in
    Alcotest.(check (list int))
      "dynamic prioritized query" expected
      (List.sort Int.compare
         (List.map (fun (d : Dot.t) -> d.Dot.uid) (Dot_dyn_pri.query s q ~tau)))
  done;
  Alcotest.(check bool) "rebuilds happened" true (Dot_dyn_pri.rebuilds s >= 0)

(* Failure injection: starve the randomized machinery of its constants
   and check exactness is preserved (only cost may degrade). *)
let test_adversarial_params_still_exact () =
  let rng = Rng.create 439 in
  let dots = random_dots rng 800 in
  let oracle = Dot_oracle.build dots in
  List.iter
    (fun (scale, sigma, seed) ->
      let params =
        {
          dot_params with
          Params.coreset_scale = scale;
          sigma;
          seed;
          max_sample_retries = 0;
        }
      in
      let t1 = Dot_t1.build ~params dots in
      let t2 = Dot_t2.build ~params dots in
      for _ = 1 to 15 do
        let q = Rng.uniform rng in
        List.iter
          (fun k ->
            let expected =
              List.map (fun (d : Dot.t) -> d.Dot.uid)
                (Dot_oracle.top_k oracle q ~k)
            in
            Alcotest.(check (list int))
              "t1 exact under adversarial params" expected
              (List.map (fun (d : Dot.t) -> d.Dot.uid) (Dot_t1.query t1 q ~k));
            Alcotest.(check (list int))
              "t2 exact under adversarial params" expected
              (List.map (fun (d : Dot.t) -> d.Dot.uid) (Dot_t2.query t2 q ~k)))
          [ 1; 31; 400 ]
      done)
    [ (0.001, 0.5, 1); (0.0001, 2.0, 2); (3.0, 0.001, 3) ]

let test_theorem2_round_failure_rate () =
  (* Across many queries, round failures must stay well under the 0.91
     bound of Lemma 3 (empirically they are much rarer). *)
  let rng = Rng.create 421 in
  let dots = random_dots rng 5_000 in
  let t2 = Dot_t2.build ~params:dot_params dots in
  for _ = 1 to 300 do
    let q = Rng.uniform rng in
    ignore (Dot_t2.query t2 q ~k:(1 + Rng.int rng 50))
  done;
  let run = Dot_t2.rounds_run t2 and failed = Dot_t2.rounds_failed t2 in
  Alcotest.(check bool) "ran rounds" true (run > 0);
  Alcotest.(check bool)
    (Printf.sprintf "failure rate %d/%d below bound" failed run)
    true
    (float_of_int failed /. float_of_int run < 0.91)

let test_theorem1_no_fallbacks_on_uniform () =
  let rng = Rng.create 423 in
  let dots = random_dots rng 4_000 in
  let t1 = Dot_t1.build ~params:dot_params dots in
  for _ = 1 to 100 do
    ignore (Dot_t1.query t1 (Rng.uniform rng) ~k:(1 + Rng.int rng 2000))
  done;
  (* Fallbacks are the whp-failure escape hatch; they should be rare. *)
  Alcotest.(check bool) "fallbacks rare" true (Dot_t1.fallbacks t1 <= 2)

let test_space_accounting_positive () =
  let rng = Rng.create 427 in
  let dots = random_dots rng 2_000 in
  let t1 = Dot_t1.build ~params:dot_params dots in
  let t2 = Dot_t2.build ~params:dot_params dots in
  Alcotest.(check bool) "t1 space" true (Dot_t1.space_words t1 >= 2_000);
  Alcotest.(check bool) "t2 space" true (Dot_t2.space_words t2 >= 2_000);
  let info = Dot_t2.info t2 in
  Alcotest.(check bool) "ladder sampled" true (info.Dot_t2.rungs >= 0)

let prop_dot_t2_agrees =
  QCheck.Test.make ~count:40 ~name:"theorem2 agrees on random dots"
    QCheck.(pair (int_bound 50_000) (int_bound 400))
    (fun (seed, raw_n) ->
      let n = max 3 raw_n in
      let rng = Rng.create seed in
      let dots = random_dots rng n in
      let oracle = Dot_oracle.build dots in
      let t2 = Dot_t2.build ~params:dot_params dots in
      List.for_all
        (fun _ ->
          let q = Rng.uniform rng in
          let k = 1 + Rng.int rng n in
          List.map (fun (d : Dot.t) -> d.Dot.uid) (Dot_oracle.top_k oracle q ~k)
          = List.map (fun (d : Dot.t) -> d.Dot.uid) (Dot_t2.query t2 q ~k))
        [ (); (); () ])

let () =
  Alcotest.run "topk_core"
    [
      ( "lemma1",
        [
          Alcotest.test_case "failure rate" `Slow test_lemma1_failure_rate;
          Alcotest.test_case "parameters" `Quick test_lemma1_parameters;
          Alcotest.test_case "rank_of" `Quick test_rank_of;
        ] );
      ( "lemma3",
        [ Alcotest.test_case "success rate" `Slow test_lemma3_success_rate ] );
      ( "core_set",
        [
          Alcotest.test_case "size bound" `Quick test_core_set_size_bound;
          Alcotest.test_case "degenerate" `Quick test_core_set_degenerate;
          Alcotest.test_case "rank capture" `Slow test_core_set_rank_capture;
        ] );
      ( "prefix_blocks",
        [
          Alcotest.test_case "covers exactly" `Quick
            test_prefix_blocks_cover_exactly;
          Alcotest.test_case "edges" `Quick test_prefix_blocks_edges;
        ] );
      ( "weight_order",
        [ Alcotest.test_case "order and top_k" `Quick test_weight_order ] );
      ( "reductions",
        [
          Alcotest.test_case "match oracle" `Slow
            test_dot_reductions_match_oracle;
          Alcotest.test_case "rj-counting matches oracle" `Quick
            test_counting_reduction_matches_oracle;
          Alcotest.test_case "synthesized max and theorem2" `Quick
            test_synth_max_and_t2;
          Alcotest.test_case "bentley-saxe generic" `Quick
            test_bentley_saxe_generic;
          Alcotest.test_case "adversarial params stay exact" `Quick
            test_adversarial_params_still_exact;
          Alcotest.test_case "theorem2 round failures" `Quick
            test_theorem2_round_failure_rate;
          Alcotest.test_case "theorem1 fallbacks rare" `Quick
            test_theorem1_no_fallbacks_on_uniform;
          Alcotest.test_case "space accounting" `Quick
            test_space_accounting_positive;
          QCheck_alcotest.to_alcotest prop_dot_t2_agrees;
        ] );
    ]
