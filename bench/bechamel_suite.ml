(* Wall-clock microbenchmarks (one Bechamel test per experiment
   family) complementing the I/O-count tables: the same structures,
   measured in nanoseconds per query on the host machine. *)

open Bechamel
module Rng = Topk_util.Rng
module Gen = Topk_util.Gen
module I_inst = Topk_interval.Instances
module H = Topk_halfspace
module H_inst = Topk_halfspace.Instances
module E_inst = Topk_enclosure.Instances
module D_inst = Topk_dominance.Instances

let n = 16_384

(* A Theorem 1 row's name carries its regime, read off [Topk_t1.info]:
   a core-set chain of one level and no ladder rungs answers by scanning
   the input with k = f, so such a row times a scan, not the reduction
   (f >= n/4 at this n for the interval workload). *)
let count n thing = Printf.sprintf "%d %s%s" n thing (if n = 1 then "" else "s")

let thm1_regime ~levels ~rungs =
  Printf.sprintf "%s, %s%s" (count levels "level") (count rungs "rung")
    (if levels = 1 && rungs = 0 then " = scan" else "")

(* A Theorem 2 row's name carries its ladder, read off [Topk_t2.info]:
   with no rungs (K_1 > n/4) every query scans the input, so such a
   row times a scan, not a round. *)
let thm2_regime ~rungs =
  count rungs "rung" ^ if rungs = 0 then " = scan" else ""

let interval_tests () =
  let elems =
    Workloads.intervals ~seed:900 ~shape:Gen.Mixed_intervals ~n
  in
  let queries = Workloads.stab_queries ~seed:901 ~n:64 in
  let params = I_inst.params () in
  let pri = Topk_interval.Seg_stab.build elems in
  let mx = Topk_interval.Slab_max.build elems in
  let t1 = I_inst.Topk_t1.build ~params elems in
  (* At a sixteenth of the core-set scale, f = 672 < n/4: the same
     input gets a multi-level chain and a ladder, so this row times
     the reduction itself. *)
  let t1_ladder =
    I_inst.Topk_t1.build
      ~params:{ params with Topk_core.Params.coreset_scale = 1. /. 16. }
      elems
  in
  let ladder_info = I_inst.Topk_t1.info t1_ladder in
  let t2 = I_inst.Topk_t2.build ~params elems in
  let rj = I_inst.Topk_rj.build elems in
  let naive = I_inst.Topk_naive.build elems in
  (* The monitored scan limit of Theorem 2's first round, 4 K_1. *)
  let t2_info = I_inst.Topk_t2.info t2 in
  let first_round = 4 * t2_info.k1 in
  let t1_info = I_inst.Topk_t1.info t1 in
  let cursor = ref 0 in
  let next () =
    cursor := (!cursor + 1) mod Array.length queries;
    queries.(!cursor)
  in
  [
    Test.make ~name:"interval/pri-query (E4)"
      (Staged.stage (fun () ->
           ignore (Topk_interval.Seg_stab.query pri (next ()) ~tau:Float.infinity)));
    Test.make ~name:"interval/pri-monitored tau=-inf (E5)"
      (Staged.stage (fun () ->
           ignore
             (Topk_interval.Seg_stab.query_monitored pri (next ())
                ~tau:Float.neg_infinity ~limit:first_round)));
    Test.make ~name:"interval/max-query (E5)"
      (Staged.stage (fun () -> ignore (Topk_interval.Slab_max.query mx (next ()))));
    Test.make
      ~name:
        (Printf.sprintf "interval/thm1 top-10 (E4; %s)"
           (thm1_regime ~levels:t1_info.chain_levels
              ~rungs:t1_info.ladder_rungs))
      (Staged.stage (fun () -> ignore (I_inst.Topk_t1.query t1 (next ()) ~k:10)));
    Test.make
      ~name:
        (Printf.sprintf "interval/thm1 top-10 (E4; scale 1/16: %s)"
           (thm1_regime ~levels:ladder_info.chain_levels
              ~rungs:ladder_info.ladder_rungs))
      (Staged.stage (fun () ->
           ignore (I_inst.Topk_t1.query t1_ladder (next ()) ~k:10)));
    Test.make
      ~name:
        (Printf.sprintf "interval/thm2 top-10 (E5; %s)"
           (thm2_regime ~rungs:t2_info.rungs))
      (Staged.stage (fun () -> ignore (I_inst.Topk_t2.query t2 (next ()) ~k:10)));
    (* The shape of a scatter leg: a top-100 out of the stab set. *)
    Test.make
      ~name:
        (Printf.sprintf "interval/thm2 top-100 (E5; %s)"
           (thm2_regime ~rungs:t2_info.rungs))
      (Staged.stage (fun () -> ignore (I_inst.Topk_t2.query t2 (next ()) ~k:100)));
    Test.make ~name:"interval/rj14 top-10 (E7)"
      (Staged.stage (fun () -> ignore (I_inst.Topk_rj.query rj (next ()) ~k:10)));
    Test.make ~name:"interval/naive top-10 (E7)"
      (Staged.stage (fun () ->
           ignore (I_inst.Topk_naive.query naive (next ()) ~k:10)));
  ]

(* The kernels on a Theorem 2 / scatter answer path, on their own:
   k-selection over stab candidates at both shapes the serving
   benchmark drives (a top-10 at n = 16 384, a shard leg's top-100 at
   n = 4096), once from a materialised list and once from the stab
   visit itself (visit included: each node's sorted run is counted
   and only the k heaviest heads are merged out), and the k-way gather
   of 2 and 4 sorted legs. *)
let serving_kernel_tests () =
  let module W = Topk_core.Sigs.Weight_order (Topk_interval.Problem) in
  let stab ~n ~seed =
    let elems = Workloads.intervals ~seed ~shape:Gen.Mixed_intervals ~n in
    let pri = Topk_interval.Seg_stab.build elems in
    let queries = Workloads.stab_queries ~seed:(seed + 1) ~n:64 in
    ( pri,
      queries,
      Array.map
        (fun q -> Topk_interval.Seg_stab.query pri q ~tau:Float.neg_infinity)
        queries )
  in
  let wide_pri, wide_q, wide = stab ~n ~seed:910 in
  let leg_pri, leg_q, leg = stab ~n:4096 ~seed:912 in
  let legs s =
    Array.map
      (fun cands ->
        List.init s (fun i ->
            W.top_k 100
              (List.filter
                 (fun (e : Topk_interval.Interval.t) -> e.id mod s = i)
                 cands)))
      wide
  in
  let legs2 = legs 2 and legs4 = legs 4 in
  let cursor = ref 0 in
  let next arr =
    cursor := (!cursor + 1) mod Array.length arr;
    arr.(!cursor)
  in
  let stream pri queries k =
    Staged.stage (fun () ->
        ignore
          (W.top_k_iter k
             (Topk_interval.Seg_stab.visit pri (next queries)
                ~tau:Float.neg_infinity)))
  in
  let cmp = W.compare in
  [
    Test.make ~name:"kernel/select top-10 of stab list n=16384"
      (Staged.stage (fun () -> ignore (W.top_k 10 (next wide))));
    Test.make ~name:"kernel/select top-100 of stab list n=4096"
      (Staged.stage (fun () -> ignore (W.top_k 100 (next leg))));
    Test.make ~name:"kernel/run-merge top-10 of stab visit n=16384"
      (stream wide_pri wide_q 10);
    Test.make ~name:"kernel/run-merge top-100 of stab visit n=4096"
      (stream leg_pri leg_q 100);
    Test.make ~name:"kernel/gather 2 legs k=100"
      (Staged.stage (fun () ->
           ignore (Topk_shard.Gather.merge ~cmp ~k:100 (next legs2))));
    Test.make ~name:"kernel/gather 4 legs k=100"
      (Staged.stage (fun () ->
           ignore (Topk_shard.Gather.merge ~cmp ~k:100 (next legs4))));
  ]

(* The pool hand-off on its own: one Theorem 2 top-10 submitted to a
   1-worker pool and awaited, next to the same query run on the
   calling domain through [Client.direct].  The difference is what a
   scatter leg pays to cross domains.  The pool lives only while its
   row runs, so its domains do not disturb the other rows. *)
let service_tests () =
  let module Svc = Topk_service in
  let elems = Workloads.intervals ~seed:914 ~shape:Gen.Mixed_intervals ~n in
  let queries = Workloads.stab_queries ~seed:915 ~n:64 in
  let t2 = I_inst.Topk_t2.build ~params:(I_inst.params ()) elems in
  let h =
    Svc.Registry.register (Svc.Registry.create ()) ~name:"itv"
      (module I_inst.Topk_t2) t2
  in
  let direct =
    Svc.Client.attach (Svc.Client.create ~cache:false ()) (Svc.Client.direct h)
  in
  let cursor = ref 0 in
  let next () =
    cursor := (!cursor + 1) mod Array.length queries;
    queries.(!cursor)
  in
  [
    Test.make ~name:"service/direct thm2 top-10"
      (Staged.stage (fun () ->
           ignore (Svc.Client.query_sync direct (next ()) ~k:10)));
    Test.make_with_resource ~name:"service/pool-roundtrip thm2 top-10"
      Test.uniq
      ~allocate:(fun () -> Svc.Executor.create ~workers:1 ())
      ~free:Svc.Executor.shutdown
      (Staged.stage (fun pool ->
           ignore
             (Svc.Future.await (Svc.Executor.submit pool h (next ()) ~k:10))));
  ]

(* The answer cache's two per-read costs on their own, at the default
   4096 entries over 8 stripes: admitting a key it does not hold into
   a full cache (so every admission evicts), and a lookup that hits.
   The 65 536 admission keys are disjoint from the resident ones and
   cycle, so a key comes back only long after it was evicted. *)
let cache_tests () =
  let module C = Topk_cache.Cache in
  let module V = Topk_cache.Version in
  let capacity = 4096 in
  let key i = Marshal.to_string (float_of_int i) [] in
  let payload = Array.init 100 Fun.id in
  let admit c qkey =
    C.admit c ~instance:"bench" ~qkey ~version:V.static ~k:100 ~len:100
      ~cost:1 ~now:0.0 payload
  in
  let resident = Array.init capacity key in
  let fresh = Array.init 65_536 (fun i -> key (capacity + i)) in
  let filled () =
    let c = C.create ~capacity () in
    Array.iter (fun qkey -> ignore (admit c qkey)) resident;
    c
  in
  let full = filled () and hot = filled () in
  let cycle arr =
    let cursor = ref 0 in
    fun () ->
      cursor := (!cursor + 1) mod Array.length arr;
      arr.(!cursor)
  in
  let next_fresh = cycle fresh and next_resident = cycle resident in
  [
    Test.make ~name:"cache/admit at capacity"
      (Staged.stage (fun () -> ignore (admit full (next_fresh ()))));
    Test.make ~name:"cache/find hit"
      (Staged.stage (fun () ->
           ignore
             (C.find hot ~instance:"bench" ~qkey:(next_resident ())
                ~current:V.static ~k:10 ~now:0.0 ())));
  ]

let dynamic_tests () =
  let rng = Rng.create 902 in
  let s = I_inst.Dyn_topk.build ~params:(I_inst.params ()) [||] in
  let id = ref 0 in
  [
    Test.make ~name:"interval/dynamic insert (E8)"
      (Staged.stage (fun () ->
           incr id;
           let lo = Rng.uniform rng in
           I_inst.Dyn_topk.insert s
             (Topk_interval.Interval.make ~id:!id ~lo
                ~hi:(min 1. (lo +. 0.1))
                ~weight:(float_of_int !id) ())));
  ]

let halfplane_tests () =
  let nn = 4096 in
  let rng = Rng.create 903 in
  let pts =
    Topk_geom.Point2.of_coords rng
      (Array.map (fun c -> (c.(0), c.(1))) (Gen.points rng ~n:nn ~d:2))
  in
  let queries = Array.map Topk_geom.Halfplane.of_triple (Gen.halfplanes rng ~n:64) in
  let t2 = H_inst.Topk2_t2.build ~params:(H_inst.params2 ()) pts in
  let cursor = ref 0 in
  let next () =
    cursor := (!cursor + 1) mod Array.length queries;
    queries.(!cursor)
  in
  [
    Test.make
      ~name:
        (Printf.sprintf "halfplane/thm2 top-10 (E9; %s)"
           (thm2_regime ~rungs:(H_inst.Topk2_t2.info t2).rungs))
      (Staged.stage (fun () -> ignore (H_inst.Topk2_t2.query t2 (next ()) ~k:10)));
  ]

let kd_tests () =
  let d = 4 in
  let rng = Rng.create 904 in
  let pts = H.Pointd.of_coords rng (Gen.points rng ~n ~d) in
  let t1 = H_inst.Topkd_t1.build ~params:(H_inst.paramsd ~d) pts in
  let queries =
    Array.init 64 (fun _ ->
        let normal = Array.init d (fun _ -> Rng.uniform rng -. 0.5) in
        if Array.for_all (fun a -> Float.abs a < 1e-9) normal then
          normal.(0) <- 1.;
        let anchor = Array.init d (fun _ -> Rng.uniform rng) in
        let c = ref 0. in
        Array.iteri (fun i a -> c := !c +. (a *. anchor.(i))) normal;
        H.Predicates.Halfspace.make ~normal ~c:!c)
  in
  let cursor = ref 0 in
  let next () =
    cursor := (!cursor + 1) mod Array.length queries;
    queries.(!cursor)
  in
  let t1_info = H_inst.Topkd_t1.info t1 in
  [
    Test.make
      ~name:
        (Printf.sprintf "kd4/thm1 top-8 (E10; %s)"
           (thm1_regime ~levels:t1_info.chain_levels
              ~rungs:t1_info.ladder_rungs))
      (Staged.stage (fun () -> ignore (H_inst.Topkd_t1.query t1 (next ()) ~k:8)));
  ]

let enclosure_tests () =
  let nn = 8192 in
  let rng = Rng.create 905 in
  let rects = Topk_enclosure.Rect.of_boxes rng (Gen.rectangles rng ~n:nn) in
  let t2 = E_inst.Topk_t2.build ~params:(E_inst.params ()) rects in
  let queries = Array.init 64 (fun _ -> (Rng.uniform rng, Rng.uniform rng)) in
  let cursor = ref 0 in
  let next () =
    cursor := (!cursor + 1) mod Array.length queries;
    queries.(!cursor)
  in
  [
    Test.make
      ~name:
        (Printf.sprintf "enclosure/thm2 top-10 (E11; %s)"
           (thm2_regime ~rungs:(E_inst.Topk_t2.info t2).rungs))
      (Staged.stage (fun () -> ignore (E_inst.Topk_t2.query t2 (next ()) ~k:10)));
  ]

let dominance_tests () =
  let nn = 8192 in
  let rng = Rng.create 906 in
  let hotels = D_inst.hotels rng ~n:nn in
  let params =
    { (D_inst.params ()) with Topk_core.Params.coreset_scale = 1. /. 64. }
  in
  let t2 = D_inst.Topk_t2.build ~params hotels in
  let queries =
    Array.init 64 (fun _ ->
        ( 40. +. Rng.float rng 460.,
          Rng.float rng 25.,
          -.(1. +. Rng.float rng 4.) ))
  in
  let cursor = ref 0 in
  let next () =
    cursor := (!cursor + 1) mod Array.length queries;
    queries.(!cursor)
  in
  [
    Test.make
      ~name:
        (Printf.sprintf "dominance/thm2 top-10 (E12; %s)"
           (thm2_regime ~rungs:(D_inst.Topk_t2.info t2).rungs))
      (Staged.stage (fun () -> ignore (D_inst.Topk_t2.query t2 (next ()) ~k:10)));
  ]

let run () =
  Table.section "Bechamel wall-clock microbenchmarks (ns per query)";
  (* Each group builds its structures only when it runs, and the heap
     is compacted between groups, so a row measures its query rather
     than the live heap of every other group's structures.  The
     service rows skip GC stabilisation: its full major collection
     before every sample outlasts the worker's spin and parks it, so
     each sample would open with a cold wake-up instead of the steady
     hand-off the rows are for.  The cache rows skip it too: their
     sub-microsecond calls would measure the collections rather than
     the cache. *)
  let groups =
    [ (true, interval_tests); (true, serving_kernel_tests);
      (true, dynamic_tests); (true, halfplane_tests); (true, kd_tests);
      (true, enclosure_tests); (true, dominance_tests);
      (false, service_tests); (false, cache_tests) ]
  in
  let raw = Hashtbl.create 32 in
  List.iter
    (fun (stabilize, group) ->
      Gc.compact ();
      Hashtbl.iter (Hashtbl.replace raw)
        (Benchmark.all
           (Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.3) ~kde:None
              ~stabilize ())
           [ Toolkit.Instance.monotonic_clock ]
           (Test.make_grouped ~name:"topk" (group ()))))
    groups;
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name est acc ->
        let ns =
          match Analyze.OLS.estimates est with
          | Some (x :: _) -> x
          | _ -> Float.nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (name, ns) -> [ name; Table.ff ~d:0 ns ])
  in
  Table.print ~title:"OLS estimate of run time" ~header:[ "benchmark"; "ns/query" ]
    rows
