(* Tests for the interval-stabbing structures and the reductions
   instantiated on them (Theorem 4). *)

module Rng = Topk_util.Rng
module Gen = Topk_util.Gen
module I = Topk_interval.Interval
module Problem = Topk_interval.Problem
module Seg = Topk_interval.Seg_stab
module Max = Topk_interval.Slab_max
module Inst = Topk_interval.Instances
module Sigs = Topk_core.Sigs

let mk ?id ~lo ~hi ~w () = I.make ?id ~lo ~hi ~weight:w ()

let ids elems = List.map (fun (e : I.t) -> e.I.id) elems

let check_ids = Alcotest.(check (list int))

let workload rng ~shape ~n =
  Inst.Oracle.build (I.of_spans rng (Gen.intervals rng ~shape ~n))

(* --- Interval basics --- *)

let test_make_validates () =
  Alcotest.check_raises "lo > hi" (Invalid_argument "Interval.make: lo > hi")
    (fun () -> ignore (mk ~lo:2. ~hi:1. ~w:0. ()));
  Alcotest.check_raises "nan" (Invalid_argument "Interval.make: NaN bound")
    (fun () -> ignore (mk ~lo:Float.nan ~hi:1. ~w:0. ()))

let test_contains () =
  let itv = mk ~lo:1. ~hi:3. ~w:5. () in
  Alcotest.(check bool) "inside" true (I.contains itv 2.);
  Alcotest.(check bool) "left endpoint" true (I.contains itv 1.);
  Alcotest.(check bool) "right endpoint" true (I.contains itv 3.);
  Alcotest.(check bool) "outside left" false (I.contains itv 0.999);
  Alcotest.(check bool) "outside right" false (I.contains itv 3.001)

let test_weight_order_tiebreak () =
  let a = mk ~id:1 ~lo:0. ~hi:1. ~w:5. () in
  let b = mk ~id:2 ~lo:0. ~hi:1. ~w:5. () in
  Alcotest.(check bool) "tie broken by id" true (I.compare_weight a b < 0);
  Alcotest.(check int) "antisymmetric" (-(I.compare_weight b a))
    (I.compare_weight a b)

(* --- Slabs --- *)

let test_slabs_structure () =
  let s = Topk_interval.Slabs.of_endpoints [| 3.; 1.; 2.; 1. |] in
  (* Distinct coords: 1, 2, 3 -> 7 slabs. *)
  Alcotest.(check int) "slab count" 7 (Topk_interval.Slabs.slab_count s);
  Alcotest.(check int) "coord count" 3 (Topk_interval.Slabs.coord_count s);
  (* Coordinates land on odd (point) slabs, gaps on even slabs. *)
  Alcotest.(check int) "coord 1" 1 (Topk_interval.Slabs.slab_of_point s 1.);
  Alcotest.(check int) "coord 2" 3 (Topk_interval.Slabs.slab_of_point s 2.);
  Alcotest.(check int) "coord 3" 5 (Topk_interval.Slabs.slab_of_point s 3.);
  Alcotest.(check int) "before all" 0 (Topk_interval.Slabs.slab_of_point s 0.);
  Alcotest.(check int) "gap 1-2" 2 (Topk_interval.Slabs.slab_of_point s 1.5);
  Alcotest.(check int) "gap 2-3" 4 (Topk_interval.Slabs.slab_of_point s 2.5);
  Alcotest.(check int) "after all" 6 (Topk_interval.Slabs.slab_of_point s 9.);
  Alcotest.(check int) "slab_of_coord" 3 (Topk_interval.Slabs.slab_of_coord s 2.);
  Alcotest.check_raises "not a coordinate"
    (Invalid_argument "Slabs.slab_of_coord: not a coordinate") (fun () ->
      ignore (Topk_interval.Slabs.slab_of_coord s 1.5))

let prop_slabs_monotone =
  QCheck.Test.make ~count:100 ~name:"slab index is monotone in the point"
    QCheck.(pair (int_bound 10_000) (int_bound 50))
    (fun (seed, raw_m) ->
      let m = max 1 raw_m in
      let rng = Rng.create seed in
      let coords = Array.init m (fun _ -> Rng.uniform rng) in
      let s = Topk_interval.Slabs.of_endpoints coords in
      let qs = Array.init 50 (fun _ -> Rng.float rng 1.2 -. 0.1) in
      Array.sort Float.compare qs;
      let slabs = Array.map (Topk_interval.Slabs.slab_of_point s) qs in
      Topk_util.Search.is_sorted ~cmp:Int.compare slabs)

(* --- Prioritized structure (Seg_stab) --- *)

let sorted_ids elems =
  List.sort Int.compare (ids elems)

let test_seg_stab_matches_oracle () =
  let rng = Rng.create 7 in
  List.iter
    (fun shape ->
      let oracle = workload rng ~shape ~n:300 in
      let s = Seg.build (Inst.Oracle.elements oracle) in
      let queries = Gen.stab_queries rng ~n:50 in
      Array.iter
        (fun q ->
          List.iter
            (fun tau ->
              let expected = Inst.Oracle.prioritized oracle q ~tau in
              let got = Seg.query s q ~tau in
              check_ids "prioritized query" (sorted_ids expected)
                (sorted_ids got))
            [ Float.neg_infinity; 50.; 150.; 290.; 301. ])
        queries)
    [ Gen.Short_intervals; Gen.Mixed_intervals; Gen.Nested_intervals ]

let test_seg_stab_endpoint_queries () =
  let rng = Rng.create 11 in
  let oracle = workload rng ~shape:Gen.Mixed_intervals ~n:200 in
  let elems = Inst.Oracle.elements oracle in
  let s = Seg.build elems in
  (* Query exactly at interval endpoints: closed-interval semantics. *)
  Array.iteri
    (fun i (itv : I.t) ->
      if i mod 10 = 0 then begin
        List.iter
          (fun q ->
            let expected = Inst.Oracle.prioritized oracle q ~tau:Float.neg_infinity in
            let got = Seg.query s q ~tau:Float.neg_infinity in
            check_ids "endpoint stab" (sorted_ids expected) (sorted_ids got))
          [ itv.I.lo; itv.I.hi ]
      end)
    elems

let test_seg_stab_monitored () =
  let rng = Rng.create 13 in
  let oracle = workload rng ~shape:Gen.Nested_intervals ~n:500 in
  let s = Seg.build (Inst.Oracle.elements oracle) in
  let q = 0.5 (* center of nested intervals: everything matches *) in
  let total = Inst.Oracle.count oracle q in
  Alcotest.(check bool) "big result" true (total > 400);
  (match Seg.query_monitored s q ~tau:Float.neg_infinity ~limit:10 with
   | Sigs.Truncated prefix ->
       Alcotest.(check int) "stops at limit+1" 11 (List.length prefix)
   | Sigs.All _ -> Alcotest.fail "expected truncation");
  (match Seg.query_monitored s q ~tau:Float.neg_infinity ~limit:total with
   | Sigs.All all -> Alcotest.(check int) "full result" total (List.length all)
   | Sigs.Truncated _ -> Alcotest.fail "unexpected truncation")

let test_seg_stab_empty_and_single () =
  let s = Seg.build [||] in
  Alcotest.(check int) "empty query" 0
    (List.length (Seg.query s 0.5 ~tau:Float.neg_infinity));
  let one = mk ~id:1 ~lo:0.2 ~hi:0.8 ~w:1. () in
  let s = Seg.build [| one |] in
  check_ids "hit" [ 1 ] (ids (Seg.query s 0.5 ~tau:Float.neg_infinity));
  check_ids "miss" [] (ids (Seg.query s 0.9 ~tau:Float.neg_infinity));
  check_ids "tau filters" [] (ids (Seg.query s 0.5 ~tau:2.))

(* --- Interval-tree prioritized (linear space) --- *)

let test_itree_matches_oracle () =
  let rng = Rng.create 14 in
  List.iter
    (fun shape ->
      let oracle = workload rng ~shape ~n:300 in
      let s = Topk_interval.Itree_pri.build (Inst.Oracle.elements oracle) in
      let queries = Gen.stab_queries rng ~n:50 in
      Array.iter
        (fun q ->
          List.iter
            (fun tau ->
              check_ids "itree prioritized"
                (sorted_ids (Inst.Oracle.prioritized oracle q ~tau))
                (sorted_ids (Topk_interval.Itree_pri.query s q ~tau)))
            [ Float.neg_infinity; 150.; 500. ])
        queries)
    [ Gen.Short_intervals; Gen.Mixed_intervals; Gen.Nested_intervals ]

let test_itree_linear_space_and_depth () =
  let rng = Rng.create 15 in
  let oracle = workload rng ~shape:Gen.Mixed_intervals ~n:4096 in
  let elems = Inst.Oracle.elements oracle in
  let itree = Topk_interval.Itree_pri.build elems in
  let seg = Seg.build elems in
  (* Linear vs n log n: the interval tree must be much smaller. *)
  Alcotest.(check bool) "itree smaller than segment tree" true
    (Topk_interval.Itree_pri.space_words itree < Seg.space_words seg / 2);
  Alcotest.(check bool) "logarithmic depth" true
    (Topk_interval.Itree_pri.depth itree <= 3 * 12)

let test_itree_reduction_matches_oracle () =
  let rng = Rng.create 16 in
  let oracle = workload rng ~shape:Gen.Mixed_intervals ~n:400 in
  let elems = Inst.Oracle.elements oracle in
  let t2 = Inst.Topk_t2_itree.build ~params:(Inst.params ()) elems in
  let queries = Gen.stab_queries rng ~n:25 in
  Array.iter
    (fun q ->
      List.iter
        (fun k ->
          check_ids "theorem2 over itree"
            (ids (Inst.Oracle.top_k oracle q ~k))
            (ids (Inst.Topk_t2_itree.query t2 q ~k)))
        [ 1; 7; 80; 900 ])
    queries

(* --- Max structure (Slab_max) --- *)

let test_slab_max_matches_oracle () =
  let rng = Rng.create 17 in
  List.iter
    (fun shape ->
      let oracle = workload rng ~shape ~n:400 in
      let m = Max.build (Inst.Oracle.elements oracle) in
      let queries = Gen.stab_queries rng ~n:100 in
      Array.iter
        (fun q ->
          let expected = Inst.Oracle.max oracle q in
          let got = Max.query m q in
          Alcotest.(check (option int))
            "max id"
            (Option.map (fun (e : I.t) -> e.I.id) expected)
            (Option.map (fun (e : I.t) -> e.I.id) got))
        queries)
    [ Gen.Short_intervals; Gen.Mixed_intervals; Gen.Nested_intervals ]

let test_slab_max_endpoints () =
  let rng = Rng.create 19 in
  let oracle = workload rng ~shape:Gen.Mixed_intervals ~n:300 in
  let elems = Inst.Oracle.elements oracle in
  let m = Max.build elems in
  Array.iteri
    (fun i (itv : I.t) ->
      if i mod 7 = 0 then
        List.iter
          (fun q ->
            let expected = Inst.Oracle.max oracle q in
            let got = Max.query m q in
            Alcotest.(check (option int))
              "max at endpoint"
              (Option.map (fun (e : I.t) -> e.I.id) expected)
              (Option.map (fun (e : I.t) -> e.I.id) got))
          [ itv.I.lo; itv.I.hi ])
    elems

(* --- Counting structure --- *)

let test_stab_count_matches_oracle () =
  let rng = Rng.create 21 in
  List.iter
    (fun shape ->
      let oracle = workload rng ~shape ~n:400 in
      let c = Topk_interval.Stab_count.build (Inst.Oracle.elements oracle) in
      Array.iter
        (fun q ->
          Alcotest.(check int)
            "stab count" (Inst.Oracle.count oracle q)
            (Topk_interval.Stab_count.count c q))
        (Gen.stab_queries rng ~n:80))
    [ Gen.Short_intervals; Gen.Mixed_intervals; Gen.Nested_intervals ]

let test_stab_count_endpoints () =
  let rng = Rng.create 22 in
  let oracle = workload rng ~shape:Gen.Mixed_intervals ~n:200 in
  let elems = Inst.Oracle.elements oracle in
  let c = Topk_interval.Stab_count.build elems in
  Array.iteri
    (fun i (itv : I.t) ->
      if i mod 13 = 0 then
        List.iter
          (fun q ->
            Alcotest.(check int)
              "count at endpoint" (Inst.Oracle.count oracle q)
              (Topk_interval.Stab_count.count c q))
          [ itv.I.lo; itv.I.hi ])
    elems

(* --- Reductions end to end (Theorem 4) --- *)

let check_topk name structure_query oracle queries ks =
  Array.iter
    (fun q ->
      List.iter
        (fun k ->
          let expected = Inst.Oracle.top_k oracle q ~k in
          let got = structure_query q ~k in
          check_ids
            (Printf.sprintf "%s top-%d" name k)
            (ids expected) (ids got))
        ks)
    queries

let reduction_case name build query_fn =
  let rng = Rng.create 23 in
  List.iter
    (fun (shape, n) ->
      let oracle = workload rng ~shape ~n in
      let t = build (Inst.Oracle.elements oracle) in
      let queries = Gen.stab_queries rng ~n:25 in
      check_topk name (query_fn t) oracle queries
        [ 1; 2; 3; 10; 50; n / 2; n; 2 * n ])
    [ (Gen.Short_intervals, 300);
      (Gen.Mixed_intervals, 500);
      (Gen.Nested_intervals, 400) ]

let test_theorem1_correct () =
  reduction_case "theorem1"
    (fun elems -> Inst.Topk_t1.build ~params:(Inst.params ()) elems)
    (fun t q ~k -> Inst.Topk_t1.query t q ~k)

let test_theorem2_correct () =
  reduction_case "theorem2"
    (fun elems -> Inst.Topk_t2.build ~params:(Inst.params ()) elems)
    (fun t q ~k -> Inst.Topk_t2.query t q ~k)

let test_baseline_rj_correct () =
  reduction_case "baseline-rj"
    (fun elems -> Inst.Topk_rj.build elems)
    (fun t q ~k -> Inst.Topk_rj.query t q ~k)

let test_rj_counting_correct () =
  reduction_case "rj-counting"
    (fun elems -> Inst.Topk_rj_counting.build elems)
    (fun t q ~k -> Inst.Topk_rj_counting.query t q ~k)

let test_naive_correct () =
  reduction_case "naive"
    (fun elems -> Inst.Topk_naive.build elems)
    (fun t q ~k -> Inst.Topk_naive.query t q ~k)

(* k = 0 and negative k return nothing; k = 1 agrees with max. *)
let test_topk_degenerate_k () =
  let rng = Rng.create 29 in
  let oracle = workload rng ~shape:Gen.Mixed_intervals ~n:200 in
  let elems = Inst.Oracle.elements oracle in
  let t1 = Inst.Topk_t1.build ~params:(Inst.params ()) elems in
  let t2 = Inst.Topk_t2.build ~params:(Inst.params ()) elems in
  Alcotest.(check int) "t1 k=0" 0 (List.length (Inst.Topk_t1.query t1 0.5 ~k:0));
  Alcotest.(check int) "t2 k=-1" 0
    (List.length (Inst.Topk_t2.query t2 0.5 ~k:(-1)));
  let m = Max.build elems in
  let queries = Gen.stab_queries rng ~n:40 in
  Array.iter
    (fun q ->
      let top1 = Inst.Topk_t2.query t2 q ~k:1 in
      let mx = Max.query m q in
      Alcotest.(check (option int))
        "k=1 equals max"
        (Option.map (fun (e : I.t) -> e.I.id) mx)
        (match top1 with [] -> None | e :: _ -> Some e.I.id))
    queries

(* Property-based: random workloads, random queries, all reductions
   agree with the oracle. *)
let prop_reductions_agree =
  QCheck.Test.make ~count:30 ~name:"reductions agree with oracle"
    QCheck.(pair (int_bound 1000) (int_bound 300))
    (fun (seed, raw_n) ->
      let n = max 4 raw_n in
      let rng = Rng.create seed in
      let shape =
        match seed mod 3 with
        | 0 -> Gen.Short_intervals
        | 1 -> Gen.Mixed_intervals
        | _ -> Gen.Nested_intervals
      in
      let oracle = workload rng ~shape ~n in
      let elems = Inst.Oracle.elements oracle in
      let t1 = Inst.Topk_t1.build ~params:(Inst.params ()) elems in
      let t2 = Inst.Topk_t2.build ~params:(Inst.params ()) elems in
      let rj = Inst.Topk_rj.build elems in
      let qs = Gen.stab_queries rng ~n:5 in
      let ks = [ 1; 7; n / 3; n ] in
      Array.for_all
        (fun q ->
          List.for_all
            (fun k ->
              let expected = ids (Inst.Oracle.top_k oracle q ~k) in
              expected = ids (Inst.Topk_t1.query t1 q ~k)
              && expected = ids (Inst.Topk_t2.query t2 q ~k)
              && expected = ids (Inst.Topk_rj.query rj q ~k))
            ks)
        qs)

(* --- Charging golden ---

   Seeded Seg_stab and Theorem 2 builds, 256 fixed stab points: the
   summed (ios, scanned) of every query family, and under a seeded
   fault plan the (query, I/O) at which each Em_fault fires.  How a
   scan is batched into [charge_scan] calls may change (DESIGN.md,
   "Charging discipline"); these values may not.  Monitored limits
   63/64/65/130 stop scans inside a node. *)

module Stats = Topk_em.Stats
module Fault = Topk_em.Fault

let golden_points = Array.init 256 (fun i -> (float_of_int i +. 0.5) /. 256.)

let golden_structures () =
  let rng = Rng.create 2016 in
  let elems =
    I.of_spans rng (Gen.intervals rng ~shape:Gen.Mixed_intervals ~n:4096)
  in
  (elems, Seg.build elems, Inst.Topk_t2.build ~params:(Inst.params ()) elems)

let measured f =
  Array.fold_left
    (fun (ios, scanned) q ->
      let (), s = Stats.measure (fun () -> f q) in
      (ios + s.Stats.ios, scanned + s.Stats.scanned))
    (0, 0) golden_points

(* Each query runs under [Stats.measure] (a fresh scan carry, as the
   serving layer's [round_carry] gives it); the hook wrapper counts
   block I/Os so a fault is located by the I/O that raised it. *)
let fault_points f =
  let ios = ref 0 in
  let hook = !Stats.io_fault_hook in
  Stats.io_fault_hook :=
    (fun n ->
      for _ = 1 to n do
        incr ios;
        hook 1
      done);
  Fun.protect
    ~finally:(fun () -> Stats.io_fault_hook := hook)
    (fun () ->
      Fault.with_plan (Fault.plan ~seed:7 ~io_fault_rate:0.01 ()) (fun () ->
          List.filter_map
            (fun i ->
              ios := 0;
              match Stats.measure (fun () -> f golden_points.(i)) with
              | _ -> None
              | exception Fault.Em_fault _ -> Some (i, !ios))
            (List.init (Array.length golden_points) Fun.id)))

let test_charging_golden () =
  let elems, seg, t2 = golden_structures () in
  let weights = Array.map (fun (e : I.t) -> e.I.weight) elems in
  Array.sort Float.compare weights;
  let tau = weights.(Array.length weights / 2) in
  let costs =
    [ measured (fun q -> ignore (Seg.query seg q ~tau:Float.neg_infinity));
      measured (fun q -> ignore (Seg.query seg q ~tau)) ]
    @ List.map
        (fun limit ->
          measured (fun q ->
              ignore
                (Seg.query_monitored seg q ~tau:Float.neg_infinity ~limit)))
        [ 0; 1; 5; 63; 64; 65; 130; 1000 ]
    @ List.map
        (fun k -> measured (fun q -> ignore (Inst.Topk_t2.query t2 q ~k)))
        [ 1; 10; 100; 1000 ]
  in
  Alcotest.(check (list (pair int int)))
    "(ios, scanned) per query family"
    [ (7811, 33546); (7588, 16706);
      (4050, 256); (4357, 512); (4890, 1534); (6492, 15579);
      (6502, 15804); (6516, 16028); (7241, 28731); (7811, 33546);
      (8348, 67092); (8348, 67092); (8348, 67092); (16384, 1048576) ]
    costs;
  Alcotest.(check (list (pair int int)))
    "theorem2 top-10 fault points"
    [ (5, 21); (9, 11); (12, 1); (39, 28); (41, 15); (44, 12); (47, 21);
      (50, 13); (57, 2); (60, 27); (72, 1); (77, 12); (78, 31); (80, 9);
      (83, 19); (92, 21); (94, 4); (98, 23); (100, 24); (101, 29);
      (110, 29); (113, 7); (124, 6); (126, 15); (131, 22); (132, 25);
      (133, 28); (135, 30); (140, 11); (142, 11); (143, 16); (154, 15);
      (163, 31); (165, 31); (166, 8); (167, 25); (173, 1); (174, 7);
      (182, 27); (186, 22); (191, 8); (192, 25); (196, 18); (199, 17);
      (202, 8); (203, 25); (207, 20); (208, 14); (209, 4); (211, 7);
      (216, 24); (222, 10); (223, 24); (224, 30); (225, 12); (227, 24);
      (237, 2); (239, 20); (241, 6); (245, 1); (249, 20); (251, 26);
      (252, 1); (254, 15) ]
    (fault_points (fun q -> ignore (Inst.Topk_t2.query t2 q ~k:10)));
  Alcotest.(check (list (pair int int)))
    "seg_stab monitored (limit 130) fault points"
    [ (5, 21); (9, 13); (12, 3); (41, 3); (43, 17); (46, 16); (49, 24);
      (52, 18); (59, 20); (63, 12); (77, 2); (83, 7); (85, 3); (87, 15);
      (91, 2); (102, 5); (104, 9); (109, 13); (112, 1); (114, 2);
      (125, 26); (128, 19); (141, 16); (143, 22); (149, 23); (150, 25);
      (152, 1); (155, 10); (161, 12); (163, 18); (164, 16); (178, 2);
      (190, 1); (193, 11); (194, 8); (195, 25); (202, 9); (203, 7);
      (213, 22); (218, 4); (223, 24); (224, 25); (228, 29); (231, 23);
      (234, 14); (235, 25); (239, 29); (240, 14); (241, 4); (243, 11);
      (249, 8); (255, 25) ]
    (fault_points (fun q ->
         ignore (Seg.query_monitored seg q ~tau:Float.neg_infinity ~limit:130)))

(* The Mixed build above never truncates a Theorem 2 round: every
   stab set fits under its round's limit, so top-k scans exactly twice
   the full stab set (the visit, then the selection over its count).
   Nested intervals at the same seed and size stab deep enough that
   early rounds stop at their limit and escalate: each top-k scans more
   than two full stab scans, and the values below pin what a truncated
   round charges. *)
let test_charging_truncated_rounds () =
  let rng = Rng.create 2016 in
  let elems =
    I.of_spans rng (Gen.intervals rng ~shape:Gen.Nested_intervals ~n:4096)
  in
  let seg = Seg.build elems
  and t2 = Inst.Topk_t2.build ~params:(Inst.params ()) elems in
  Alcotest.(check (list (pair int int)))
    "(ios, scanned): full stab, then theorem2 top-1/10/100"
    [ (15488, 524308);
      (46812, 1740924); (46812, 1740924); (46812, 1740924) ]
    (measured (fun q -> ignore (Seg.query seg q ~tau:Float.neg_infinity))
    :: List.map
         (fun k -> measured (fun q -> ignore (Inst.Topk_t2.query t2 q ~k)))
         [ 1; 10; 100 ])

(* Dynamic Theorem 2 on interval stabbing and 1D range: a seeded build,
   inserts past a doubling and deletes past a halving (both resample
   the ladder), then stab points / ranges at k = 1, 10, 100.  Nested
   intervals and wide ranges truncate early rounds and escalate, so
   [rounds_failed > 0].  Pinned per structure: (summed query ios,
   rounds_run, rounds_failed, resamples). *)
let dyn_golden ~build ~insert ~delete ~query ~stats elems queries =
  let n = Array.length elems in
  let s = build (Array.sub elems 0 (n / 4)) in
  for i = n / 4 to n - 1 do
    insert s elems.(i)
  done;
  for i = 0 to n - 1 do
    if i mod 4 <> 0 then delete s elems.(i)
  done;
  let ios =
    Array.fold_left
      (fun acc q ->
        List.fold_left
          (fun acc k ->
            let (), st = Stats.measure (fun () -> ignore (query s q ~k)) in
            acc + st.Stats.ios)
          acc [ 1; 10; 100 ])
      0 queries
  in
  let run, failed, resamples = stats s in
  (ios, run, failed, resamples)

let test_charging_dynamic_rounds () =
  let module D = Inst.Dyn_topk in
  let module R = Topk_range.Instances.Dyn_topk in
  let module Wp = Topk_range.Wpoint in
  let rng = Rng.create 2016 in
  let intervals =
    I.of_spans rng (Gen.intervals rng ~shape:Gen.Nested_intervals ~n:2048)
  in
  let points =
    Wp.of_positions rng (Array.init 2048 (fun _ -> Rng.uniform rng))
  in
  let ranges =
    Array.init 32 (fun _ ->
        let a = Rng.uniform rng and b = Rng.uniform rng in
        (Float.min a b, Float.max a b))
  in
  (* A small K_1 keeps a ladder of a few dozen rungs at n = 512. *)
  let small p = { p with Topk_core.Params.coreset_scale = 1. /. 16. } in
  let quad = Alcotest.(pair (pair int int) (pair int int)) in
  let flat (a, b, c, d) = ((a, b), (c, d)) in
  Alcotest.check quad "interval (ios, rounds, failed, resamples)"
    ((56431, 252), (60, 2))
    (flat
       (dyn_golden
          ~build:(D.build ~params:(small (Inst.params ())))
          ~insert:D.insert ~delete:D.delete ~query:D.query
          ~stats:(fun s -> (D.rounds_run s, D.rounds_failed s, D.resamples s))
          intervals (Array.sub golden_points 0 64)));
  Alcotest.check quad "range (ios, rounds, failed, resamples)"
    ((14455, 114), (18, 2))
    (flat
       (dyn_golden
          ~build:(R.build ~params:(small (Topk_range.Instances.params ())))
          ~insert:R.insert ~delete:R.delete ~query:R.query
          ~stats:(fun s -> (R.rounds_run s, R.rounds_failed s, R.resamples s))
          points ranges))

(* [Seg_stab.visit] hands each node's [weight >= tau] prefix over as
   one run, found by probing the node's weight-sorted list.  On inputs
   with tied, infinite and NaN weights, and at tau = -inf, +inf, NaN and
   every weight, the collected answer and the selector's count and top
   k over the runs must equal a plain filter of the input. *)
let prop_seg_stab_runs =
  let module W = Sigs.Weight_order (Problem) in
  let weight =
    QCheck.Gen.(
      frequency
        [
          (6, map float_of_int (int_range (-3) 3));
          (2, float_bound_inclusive 10.);
          (1, oneofl [ Float.nan; Float.infinity; Float.neg_infinity ]);
        ])
  in
  let gen =
    QCheck.Gen.(
      pair (list_size (int_range 1 80) (triple (int_bound 8) (int_bound 8) weight))
        (int_bound 12))
  in
  let print (spans, k) =
    Printf.sprintf "k=%d %s" k
      (String.concat " "
         (List.map (fun (a, b, w) -> Printf.sprintf "[%d,%d]@%g" a b w) spans))
  in
  QCheck.Test.make ~count:300 ~name:"seg_stab runs = filter at every tau"
    (QCheck.make ~print gen)
    (fun (spans, k) ->
      let elems =
        Array.of_list
          (List.mapi
             (fun i (a, b, w) ->
               mk ~id:(i + 1) ~lo:(float_of_int (min a b))
                 ~hi:(float_of_int (max a b)) ~w ())
             spans)
      in
      let s = Seg.build elems in
      let taus =
        Float.neg_infinity :: Float.infinity :: Float.nan
        :: List.map (fun (e : I.t) -> e.I.weight) (Array.to_list elems)
      in
      List.for_all
        (fun q ->
          List.for_all
            (fun tau ->
              let truth =
                List.filter
                  (fun (e : I.t) -> I.contains e q && e.I.weight >= tau)
                  (Array.to_list elems)
              in
              let sorted l = List.sort compare (ids l) in
              sorted (Seg.query s q ~tau) = sorted truth
              &&
              match W.top_k_iter k (Seg.visit s q ~tau) with
              | Some (count, top) ->
                  count = List.length truth && ids top = ids (W.top_k k truth)
              | None -> false)
            taus)
        [ 0.; 0.5; 1.; 3.; 4.5; 8. ])

let () =
  Alcotest.run "topk_interval"
    [
      ( "interval",
        [
          Alcotest.test_case "make validates" `Quick test_make_validates;
          Alcotest.test_case "contains" `Quick test_contains;
          Alcotest.test_case "weight order tiebreak" `Quick
            test_weight_order_tiebreak;
        ] );
      ( "slabs",
        [
          Alcotest.test_case "structure" `Quick test_slabs_structure;
          QCheck_alcotest.to_alcotest prop_slabs_monotone;
        ] );
      ( "seg_stab",
        [
          Alcotest.test_case "matches oracle" `Quick
            test_seg_stab_matches_oracle;
          Alcotest.test_case "endpoint queries" `Quick
            test_seg_stab_endpoint_queries;
          Alcotest.test_case "monitored" `Quick test_seg_stab_monitored;
          Alcotest.test_case "empty and single" `Quick
            test_seg_stab_empty_and_single;
          QCheck_alcotest.to_alcotest prop_seg_stab_runs;
        ] );
      ( "itree_pri",
        [
          Alcotest.test_case "matches oracle" `Quick test_itree_matches_oracle;
          Alcotest.test_case "linear space, log depth" `Quick
            test_itree_linear_space_and_depth;
          Alcotest.test_case "theorem2 over itree" `Quick
            test_itree_reduction_matches_oracle;
        ] );
      ( "slab_max",
        [
          Alcotest.test_case "matches oracle" `Quick
            test_slab_max_matches_oracle;
          Alcotest.test_case "endpoints" `Quick test_slab_max_endpoints;
        ] );
      ( "stab_count",
        [
          Alcotest.test_case "matches oracle" `Quick
            test_stab_count_matches_oracle;
          Alcotest.test_case "endpoints" `Quick test_stab_count_endpoints;
        ] );
      ( "reductions",
        [
          Alcotest.test_case "theorem1 correct" `Slow test_theorem1_correct;
          Alcotest.test_case "theorem2 correct" `Slow test_theorem2_correct;
          Alcotest.test_case "baseline-rj correct" `Slow
            test_baseline_rj_correct;
          Alcotest.test_case "rj-counting correct" `Slow
            test_rj_counting_correct;
          Alcotest.test_case "naive correct" `Quick test_naive_correct;
          Alcotest.test_case "degenerate k" `Quick test_topk_degenerate_k;
          QCheck_alcotest.to_alcotest prop_reductions_agree;
        ] );
      ( "charging",
        [ Alcotest.test_case "golden ios, scans and fault points" `Quick
            test_charging_golden;
          Alcotest.test_case "golden truncated theorem2 rounds" `Quick
            test_charging_truncated_rounds;
          Alcotest.test_case "golden dynamic theorem2 rounds" `Quick
            test_charging_dynamic_rounds ] );
    ]
