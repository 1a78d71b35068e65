(* Tests for top-k 1D range reporting and the synthesized
   max-from-prioritized reduction. *)

module Rng = Topk_util.Rng
module W = Topk_range.Wpoint
module Pri = Topk_range.Range_pri
module Max = Topk_range.Range_max
module Inst = Topk_range.Instances
module Sigs = Topk_core.Sigs

let random_points rng n =
  W.of_positions rng (Array.init n (fun _ -> Rng.uniform rng))

let random_ranges rng n =
  Array.init n (fun _ ->
      let a = Rng.uniform rng and b = Rng.uniform rng in
      (Float.min a b, Float.max a b))

let ids elems = List.map (fun (e : W.t) -> e.W.id) elems

let sorted_ids elems = List.sort Int.compare (ids elems)

let test_pri_matches_oracle () =
  let rng = Rng.create 601 in
  List.iter
    (fun n ->
      let pts = random_points rng n in
      let oracle = Inst.Oracle.build pts in
      let s = Pri.build pts in
      Array.iter
        (fun q ->
          List.iter
            (fun tau ->
              Alcotest.(check (list int))
                "range prioritized"
                (sorted_ids (Inst.Oracle.prioritized oracle q ~tau))
                (sorted_ids (Pri.query s q ~tau)))
            [ Float.neg_infinity; float_of_int (n / 2); float_of_int n +. 1. ])
        (random_ranges rng 40))
    [ 0; 1; 2; 13; 400 ]

let test_pri_point_and_full_ranges () =
  let rng = Rng.create 603 in
  let pts = random_points rng 200 in
  let oracle = Inst.Oracle.build pts in
  let s = Pri.build pts in
  (* Degenerate range exactly on a point. *)
  Array.iteri
    (fun i (p : W.t) ->
      if i mod 11 = 0 then begin
        let q = (p.W.pos, p.W.pos) in
        Alcotest.(check (list int))
          "point range"
          (sorted_ids (Inst.Oracle.prioritized oracle q ~tau:Float.neg_infinity))
          (sorted_ids (Pri.query s q ~tau:Float.neg_infinity))
      end)
    pts;
  (* The full line. *)
  Alcotest.(check int) "full range" 200
    (List.length (Pri.query s (-1., 2.) ~tau:Float.neg_infinity));
  (* An empty range. *)
  Alcotest.(check int) "empty range" 0
    (List.length (Pri.query s (2., 3.) ~tau:Float.neg_infinity))

let test_pri_monitored () =
  let rng = Rng.create 607 in
  let pts = random_points rng 300 in
  let s = Pri.build pts in
  (match Pri.query_monitored s (0., 1.) ~tau:Float.neg_infinity ~limit:10 with
   | Sigs.Truncated prefix ->
       Alcotest.(check int) "limit+1" 11 (List.length prefix)
   | Sigs.All _ -> Alcotest.fail "expected truncation");
  match Pri.query_monitored s (0., 1.) ~tau:Float.neg_infinity ~limit:300 with
  | Sigs.All all -> Alcotest.(check int) "all" 300 (List.length all)
  | Sigs.Truncated _ -> Alcotest.fail "unexpected truncation"

let test_max_matches_oracle () =
  let rng = Rng.create 609 in
  List.iter
    (fun n ->
      let pts = random_points rng n in
      let oracle = Inst.Oracle.build pts in
      let m = Max.build pts in
      Array.iter
        (fun q ->
          Alcotest.(check (option int))
            "range max"
            (Option.map (fun (e : W.t) -> e.W.id) (Inst.Oracle.max oracle q))
            (Option.map (fun (e : W.t) -> e.W.id) (Max.query m q)))
        (random_ranges rng 60))
    [ 1; 2; 64; 500 ]

let test_synth_max_matches_oracle () =
  let rng = Rng.create 611 in
  let pts = random_points rng 400 in
  let oracle = Inst.Oracle.build pts in
  let m = Inst.Synth_max.build pts in
  Array.iter
    (fun q ->
      Alcotest.(check (option int))
        "synthesized max"
        (Option.map (fun (e : W.t) -> e.W.id) (Inst.Oracle.max oracle q))
        (Option.map (fun (e : W.t) -> e.W.id) (Inst.Synth_max.query m q)))
    (random_ranges rng 80);
  Alcotest.(check bool) "used binary-search probes" true
    (Inst.Synth_max.probes m > 80)

let test_reductions_match_oracle () =
  let rng = Rng.create 613 in
  let n = 400 in
  let pts = random_points rng n in
  let oracle = Inst.Oracle.build pts in
  let params = Inst.params () in
  let t1 = Inst.Topk_t1.build ~params pts in
  let t2 = Inst.Topk_t2.build ~params pts in
  let t2s = Inst.Topk_t2_synth.build ~params pts in
  let rj = Inst.Topk_rj.build pts in
  Array.iter
    (fun q ->
      List.iter
        (fun k ->
          let expected = ids (Inst.Oracle.top_k oracle q ~k) in
          Alcotest.(check (list int))
            "t1" expected (ids (Inst.Topk_t1.query t1 q ~k));
          Alcotest.(check (list int))
            "t2" expected (ids (Inst.Topk_t2.query t2 q ~k));
          Alcotest.(check (list int))
            "t2 with synthesized max" expected
            (ids (Inst.Topk_t2_synth.query t2s q ~k));
          Alcotest.(check (list int))
            "rj" expected (ids (Inst.Topk_rj.query rj q ~k)))
        [ 1; 5; 50; 500 ])
    (random_ranges rng 25)

(* --- dynamic range structures --- *)

module Model = struct
  type t = { mutable live : W.t list }

  let create () = { live = [] }

  let insert t p = t.live <- p :: t.live

  let delete t (p : W.t) =
    t.live <- List.filter (fun (x : W.t) -> x.W.id <> p.W.id) t.live

  let max t (lo, hi) =
    List.fold_left
      (fun best (p : W.t) ->
        if lo <= p.W.pos && p.W.pos <= hi then
          match best with
          | None -> Some p
          | Some b -> if W.compare_weight p b > 0 then Some p else best
        else best)
      None t.live

  let top_k t (lo, hi) ~k =
    Topk_util.Select.top_k ~cmp:W.compare_weight k
      (List.filter (fun (p : W.t) -> lo <= p.W.pos && p.W.pos <= hi) t.live)
end

let random_point rng id =
  W.make ~id ~pos:(Rng.uniform rng)
    ~weight:(float_of_int id +. Rng.float rng 0.3)
    ()

let test_dyn_range_max_trace () =
  let rng = Rng.create 617 in
  let s = Topk_range.Dyn_range_max.build [||] in
  let model = Model.create () in
  (* Ids come from a pool of 40, so deleted ids come back (often while
     still tombstoned) and the live set never exceeds 40. *)
  let pool = 40 in
  let is_live id =
    List.exists (fun (p : W.t) -> p.W.id = id) model.Model.live
  in
  let rec new_id () =
    let id = 1 + Rng.int rng pool in
    if is_live id then new_id () else id
  in
  for op = 1 to 600 do
    let n_live = List.length model.Model.live in
    if (n_live < 10 || Rng.bernoulli rng 0.6) && n_live < pool then begin
      let p = random_point rng (new_id ()) in
      Model.insert model p;
      Topk_range.Dyn_range_max.insert s p
    end
    else begin
      let arr = Array.of_list model.Model.live in
      let victim = arr.(Rng.int rng (Array.length arr)) in
      Model.delete model victim;
      Topk_range.Dyn_range_max.delete s victim
    end;
    if op mod 50 = 0 then
      Array.iter
        (fun q ->
          Alcotest.(check (option int))
            "dyn range max"
            (Option.map (fun (p : W.t) -> p.W.id) (Model.max model q))
            (Option.map
               (fun (p : W.t) -> p.W.id)
               (Topk_range.Dyn_range_max.query s q)))
        (random_ranges rng 10)
  done

let test_dyn_range_max_delete_heavy () =
  let rng = Rng.create 619 in
  let pts = random_points rng 150 in
  let s = Topk_range.Dyn_range_max.build pts in
  let model = Model.create () in
  Array.iter (Model.insert model) pts;
  let q = (0.2, 0.8) in
  let rec drain steps =
    if steps > 0 then
      match Model.max model q with
      | None ->
          Alcotest.(check (option int)) "both empty" None
            (Option.map
               (fun (p : W.t) -> p.W.id)
               (Topk_range.Dyn_range_max.query s q))
      | Some m ->
          Alcotest.(check (option int))
            "max agrees" (Some m.W.id)
            (Option.map
               (fun (p : W.t) -> p.W.id)
               (Topk_range.Dyn_range_max.query s q));
          Model.delete model m;
          Topk_range.Dyn_range_max.delete s m;
          drain (steps - 1)
  in
  drain 150

let test_dyn_topk_range_trace () =
  let rng = Rng.create 621 in
  let s = Inst.Dyn_topk.build ~params:(Inst.params ()) [||] in
  let model = Model.create () in
  let next = ref 0 in
  for op = 1 to 500 do
    if List.length model.Model.live < 5 || Rng.bernoulli rng 0.65 then begin
      incr next;
      let p = random_point rng !next in
      Model.insert model p;
      Inst.Dyn_topk.insert s p
    end
    else begin
      let arr = Array.of_list model.Model.live in
      let victim = arr.(Rng.int rng (Array.length arr)) in
      Model.delete model victim;
      Inst.Dyn_topk.delete s victim
    end;
    if op mod 60 = 0 then
      Array.iter
        (fun q ->
          List.iter
            (fun k ->
              Alcotest.(check (list int))
                "dyn range top-k"
                (ids (Model.top_k model q ~k))
                (ids (Inst.Dyn_topk.query s q ~k)))
            [ 1; 6; 500 ])
        (random_ranges rng 6)
  done

let prop_range_agree =
  QCheck.Test.make ~count:25 ~name:"range reductions agree"
    QCheck.(pair (int_bound 10_000) (int_bound 300))
    (fun (seed, raw_n) ->
      let n = max 4 raw_n in
      let rng = Rng.create seed in
      let pts = random_points rng n in
      let oracle = Inst.Oracle.build pts in
      let t2 = Inst.Topk_t2.build ~params:(Inst.params ()) pts in
      Array.for_all
        (fun q ->
          List.for_all
            (fun k ->
              ids (Inst.Oracle.top_k oracle q ~k)
              = ids (Inst.Topk_t2.query t2 q ~k))
            [ 1; 9; n ])
        (random_ranges rng 5))

let () =
  Alcotest.run "topk_range"
    [
      ( "range_pri",
        [
          Alcotest.test_case "matches oracle" `Quick test_pri_matches_oracle;
          Alcotest.test_case "point and full ranges" `Quick
            test_pri_point_and_full_ranges;
          Alcotest.test_case "monitored" `Quick test_pri_monitored;
        ] );
      ( "range_max",
        [ Alcotest.test_case "matches oracle" `Quick test_max_matches_oracle ] );
      ( "max_from_pri",
        [
          Alcotest.test_case "synthesized max matches oracle" `Quick
            test_synth_max_matches_oracle;
        ] );
      ( "reductions",
        [
          Alcotest.test_case "match oracle" `Slow test_reductions_match_oracle;
          QCheck_alcotest.to_alcotest prop_range_agree;
        ] );
      ( "dynamic",
        [
          Alcotest.test_case "dyn range max trace" `Quick
            test_dyn_range_max_trace;
          Alcotest.test_case "dyn range max delete-heavy" `Quick
            test_dyn_range_max_delete_heavy;
          Alcotest.test_case "dyn top-k trace" `Slow test_dyn_topk_range_trace;
        ] );
    ]
