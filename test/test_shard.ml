(* Sharded-index subsystem tests.

   The load-bearing invariant: for every partitioning strategy and
   every instance family, the scatter-gather planner answers {e exactly}
   like the single-structure oracle — pruning shards by their max-query
   upper bound must never change an answer, only its cost.  On weight-
   skewed partitions pruning must actually fire (nonzero shards
   pruned, strictly fewer I/Os than visiting all shards).  The
   pool-backed Scatter layer must preserve the same answers, account
   per-shard I/O exactly into [Stats.aggregate], and degrade to
   certified prefixes (never silently wrong answers) under budget or
   deadline cutoff. *)

module Sigs = Topk_core.Sigs
module Rng = Topk_util.Rng
module Gen = Topk_util.Gen
module Stats = Topk_em.Stats
module Partitioner = Topk_shard.Partitioner
module Gather = Topk_shard.Gather
module Executor = Topk_service.Executor
module Registry = Topk_service.Registry
module Response = Topk_service.Response
module Metrics = Topk_service.Metrics
module Limits = Topk_service.Limits

(* ------------------------------------------------------------------ *)
(* Partitioner                                                         *)

module IP = Topk_interval.Problem

let interval_elems seed n =
  let rng = Rng.create seed in
  Topk_interval.Interval.of_spans rng
    (Gen.intervals rng ~shape:Gen.Mixed_intervals ~n)

let interval_queries seed n =
  let rng = Rng.create seed in
  Gen.stab_queries rng ~n

let sorted_ids l = List.sort Int.compare (List.map IP.id l)

let strategies =
  [
    ("hash", Partitioner.Hash IP.id);
    ("range-weight", Partitioner.Range IP.weight);
    ("balanced", Partitioner.Balanced);
  ]

let test_partitioner_cover () =
  let elems = interval_elems 901 333 in
  let all = sorted_ids (Array.to_list elems) in
  List.iter
    (fun (name, strategy) ->
      List.iter
        (fun shards ->
          let p = Partitioner.split ~strategy ~shards elems in
          Alcotest.(check int)
            (Printf.sprintf "%s: exactly %d shards" name shards)
            shards (Array.length p);
          Alcotest.(check int)
            (Printf.sprintf "%s: sizes sum to n" name)
            (Array.length elems)
            (Array.fold_left ( + ) 0 (Partitioner.sizes p));
          (* Disjoint cover: the concatenation is a permutation. *)
          Alcotest.(check (list int))
            (Printf.sprintf "%s: disjoint cover" name)
            all
            (sorted_ids (List.concat_map Array.to_list (Array.to_list p))))
        [ 1; 2; 7; 8; 333 ])
    strategies;
  (* Balanced and Range guarantee near-equal sizes. *)
  let p = Partitioner.split ~strategy:Partitioner.Balanced ~shards:8 elems in
  let sizes = Partitioner.sizes p in
  Alcotest.(check bool)
    "balanced skew is tight" true
    (Array.fold_left max 0 sizes - Array.fold_left min max_int sizes <= 1)

let test_partitioner_validation () =
  let elems = interval_elems 902 10 in
  Alcotest.check_raises "shards = 0"
    (Invalid_argument "Partitioner.split: shards must be >= 1 (got 0)")
    (fun () ->
      ignore (Partitioner.split ~strategy:Partitioner.Balanced ~shards:0 elems));
  Alcotest.check_raises "more shards than elements"
    (Invalid_argument
       "Partitioner.split: more shards than elements (shards=11, n=10)")
    (fun () ->
      ignore
        (Partitioner.split ~strategy:Partitioner.Balanced ~shards:11 elems))

(* ------------------------------------------------------------------ *)
(* Gather                                                              *)

let test_gather_merge () =
  let rng = Rng.create 911 in
  for _trial = 1 to 50 do
    let lists =
      List.init
        (1 + Rng.int rng 6)
        (fun _ ->
          List.init (Rng.int rng 20) (fun _ -> Rng.int rng 1000)
          |> List.sort_uniq (fun a b -> Int.compare b a))
    in
    let k = Rng.int rng 25 in
    let expect =
      List.concat lists |> List.sort (fun a b -> Int.compare b a)
      |> List.filteri (fun i _ -> i < k)
    in
    Alcotest.(check (list int))
      "merge = sorted concat prefix" expect
      (Gather.merge ~cmp:Int.compare ~k lists)
  done;
  Alcotest.(check (list int))
    "k = 0" []
    (Gather.merge ~cmp:Int.compare ~k:0 [ [ 3; 2 ]; [ 1 ] ]);
  Alcotest.(check (list int)) "no inputs" [] (Gather.merge ~cmp:Int.compare ~k:5 [])

(* The heap-of-slots merge against its definition (sort everything,
   take k) on distinct values dealt into up to 6 descending legs, some
   empty, with k up to past the total; the charge is one scanned
   element per element taken. *)
let prop_gather_merge_is_sort_take =
  QCheck.Test.make ~count:300 ~name:"merge = sort-take-k, scanned = taken"
    QCheck.(triple (int_bound 6) (int_bound 300) (int_bound 350))
    (fun (legs, total, k) ->
      let rng = Rng.create ((legs * 1000) + total + (k * 7)) in
      let values = Array.init total (fun i -> i * 3) in
      Rng.shuffle rng values;
      let buckets = Array.make legs [] in
      if legs > 0 then
        Array.iter
          (fun v ->
            let b = Rng.int rng legs in
            buckets.(b) <- v :: buckets.(b))
          values;
      let lists =
        Array.to_list buckets
        |> List.map (List.sort (fun a b -> Int.compare b a))
      in
      let expect =
        (if legs = 0 then [] else Array.to_list values)
        |> List.sort (fun a b -> Int.compare b a)
        |> List.filteri (fun i _ -> i < k)
      in
      let got, cost =
        Stats.measure (fun () -> Gather.merge ~cmp:Int.compare ~k lists)
      in
      got = expect
      && cost.Stats.scanned = List.length got
      && cost.Stats.ios
         = List.length got / (Topk_em.Config.current ()).Topk_em.Config.b)

let certified = Alcotest.(pair (list (float 1e-9)) bool)

let mc ~k legs =
  Gather.merge_certified ~cmp:Float.compare ~weight:Fun.id ~k legs

let test_gather_certified () =
  (* All complete: plain merge, certified complete. *)
  Alcotest.check certified "all complete"
    ([ 9.; 8.; 6. ], true)
    (mc ~k:3 [ ([ 8.; 6. ], true); ([ 9.; 3. ], true) ]);
  (* One truncated leg: nothing below its last weight is certified. *)
  Alcotest.check certified "truncation threshold"
    ([ 10.; 9.; 8.; 6. ], false)
    (mc ~k:5 [ ([ 10.; 8.; 6. ], false); ([ 9.; 3. ], true) ]);
  (* Two truncated legs: the threshold is the MAX of their last
     weights — 5.0 sits above leg C's own cutoff but below leg A's, so
     it is not provably global and must be dropped. *)
  Alcotest.check certified "max over cutoffs"
    ([ 10.; 9.; 8.; 7.; 6. ], false)
    (mc ~k:6 [ ([ 10.; 8.; 6. ], false); ([ 9. ], true); ([ 7.; 5. ], false) ]);
  (* A cutoff that doesn't bite: the certified prefix already holds k
     elements, so the answer is complete after all. *)
  Alcotest.check certified "harmless cutoff"
    ([ 10.; 8. ], true)
    (mc ~k:2 [ ([ 10.; 8.; 6. ], false); ([ 3. ], true) ]);
  (* An empty truncated leg certifies nothing at all. *)
  Alcotest.check certified "empty truncated leg"
    ([], false)
    (mc ~k:3 [ ([ 10.; 8. ], true); ([], false) ])

(* ------------------------------------------------------------------ *)
(* Planner vs oracle, across instance families                         *)

module Family
    (T : Sigs.TOPK)
    (M : Sigs.MAX with module P = T.P)
    (Spec : sig
      val name : string

      val params : Topk_core.Params.t

      val elements : Rng.t -> n:int -> T.P.elem array

      val queries : Rng.t -> n:int -> T.P.query array
    end) =
struct
  module P = T.P
  module SS = Topk_shard.Shard_set.Make (T) (M)
  module Planner = Topk_shard.Planner.Make (SS)
  module Oracle = Topk_core.Oracle.Make (P)

  let ids l = List.map P.id l

  let strategies =
    [
      ("hash", Partitioner.Hash P.id);
      ("range-weight", Partitioner.Range P.weight);
      ("balanced", Partitioner.Balanced);
    ]

  let ks = [ 0; 1; 2; 3; 5; 8; 13; 21; 40; 100 ]

  (* 100 queries x 10 k values x 3 strategies: the sharded planner must
     agree with the sequential oracle on every single pair. *)
  let test_matches_oracle () =
    let rng = Rng.create 921 in
    let elems = Spec.elements rng ~n:1000 in
    let oracle = Oracle.build elems in
    let queries = Spec.queries rng ~n:100 in
    List.iter
      (fun (sname, strategy) ->
        let t = SS.of_elems ~params:Spec.params ~strategy ~shards:8 elems in
        Array.iter
          (fun q ->
            List.iter
              (fun k ->
                Alcotest.(check (list int))
                  (Printf.sprintf "%s/%s: top-%d = oracle" Spec.name sname k)
                  (ids (Oracle.top_k oracle q ~k))
                  (ids (Planner.query t q ~k)))
              ks)
          queries)
      strategies

  (* Weight-range partitioning concentrates heavy elements in few
     shards, so their exact maxima dominate the rest: the planner must
     actually skip most shard visits.  (Whether skipping also wins
     {e I/Os} depends on the regime — see [test_pruning_saves_io]
     below — but the bound must fire on skew for every family.) *)
  let test_pruning_on_skew () =
    let rng = Rng.create 923 in
    let elems = Spec.elements rng ~n:1000 in
    let queries = Spec.queries rng ~n:60 in
    let t =
      SS.of_elems ~params:Spec.params
        ~strategy:(Partitioner.Range P.weight)
        ~shards:8 elems
    in
    let pruned = ref 0 and visited = ref 0 in
    Array.iter
      (fun q ->
        let _, report = Planner.query_report t q ~k:25 in
        pruned := !pruned + report.Planner.pruned;
        visited := !visited + report.Planner.visited)
      queries;
    Alcotest.(check bool)
      (Printf.sprintf "%s: shards pruned > 0 (got %d)" Spec.name !pruned)
      true (!pruned > 0);
    (* Pruning is systematic on this layout, not a fluke: at least one
       shard skipped per query on average. *)
    Alcotest.(check bool)
      (Printf.sprintf "%s: pruned %d >= queries %d (visited %d)" Spec.name
         !pruned (Array.length queries) !visited)
      true
      (!pruned >= Array.length queries)

  let suite =
    [
      Alcotest.test_case
        (Printf.sprintf "%s: planner = oracle (3000 pairs)" Spec.name)
        `Quick test_matches_oracle;
      Alcotest.test_case
        (Printf.sprintf "%s: pruning fires and pays off on skew" Spec.name)
        `Quick test_pruning_on_skew;
    ]
end

module F_interval =
  Family (Topk_interval.Instances.Topk_t2) (Topk_interval.Slab_max)
    (struct
      let name = "interval"

      let params = Topk_interval.Instances.params ()

      let elements rng ~n =
        Topk_interval.Interval.of_spans rng
          (Gen.intervals rng ~shape:Gen.Mixed_intervals ~n)

      let queries rng ~n = Gen.stab_queries rng ~n
    end)

module F_range =
  Family (Topk_range.Instances.Topk_t2) (Topk_range.Range_max)
    (struct
      let name = "range"

      let params = Topk_range.Instances.params ()

      let elements rng ~n =
        Topk_range.Wpoint.of_positions rng
          (Array.init n (fun _ -> Rng.uniform rng))

      let queries rng ~n =
        Array.init n (fun _ ->
            let a = Rng.uniform rng and b = Rng.uniform rng in
            (Float.min a b, Float.max a b))
    end)

module F_ortho =
  Family (Topk_ortho.Instances.Topk_t2) (Topk_ortho.Ortho_max)
    (struct
      let name = "ortho"

      let params = Topk_ortho.Instances.params ()

      let elements rng ~n =
        Topk_geom.Point2.of_coords rng
          (Array.map (fun c -> (c.(0), c.(1))) (Gen.points rng ~n ~d:2))

      let queries rng ~n =
        Array.init n (fun _ ->
            let x1 = Rng.uniform rng and x2 = Rng.uniform rng in
            let y1 = Rng.uniform rng and y2 = Rng.uniform rng in
            (Float.min x1 x2, Float.max x1 x2, Float.min y1 y2, Float.max y1 y2))
    end)

(* ------------------------------------------------------------------ *)
(* Pruning I/O economics                                               *)

(* Pruning pays for its bound phase when a shard visit is expensive
   relative to a max query — Q_top(n/S) + O(k/B) >> Q_max(n/S).  Scan-
   backed shards are the cleanest such regime: each avoided visit saves
   an (n/S)/B-block scan while each bound costs O(log) I/Os, so on a
   weight-range partition the planner must beat visiting every shard by
   a wide margin.  (With Theorem 2 shards at small k both sides are
   O(log)-shaped and the bound phase is roughly a wash — which is why
   the per-family test above asserts only that pruning fires.) *)
module NSS =
  Topk_shard.Shard_set.Make
    (Topk_interval.Instances.Topk_naive)
    (Topk_interval.Slab_max)
module NPlanner = Topk_shard.Planner.Make (NSS)

let test_pruning_saves_io () =
  let elems = interval_elems 925 16000 in
  let queries = interval_queries 926 40 in
  let t =
    NSS.of_elems ~strategy:(Partitioner.Range IP.weight) ~shards:8 elems
  in
  let pruned = ref 0 in
  let (), cost_planner =
    Stats.measure (fun () ->
        Array.iter
          (fun q ->
            let _, report = NPlanner.query_report t q ~k:25 in
            pruned := !pruned + report.NPlanner.pruned)
          queries)
  in
  let (), cost_all =
    Stats.measure (fun () ->
        Array.iter (fun q -> ignore (NPlanner.query_all t q ~k:25)) queries)
  in
  Alcotest.(check bool)
    (Printf.sprintf "shards pruned > 0 (got %d)" !pruned)
    true (!pruned > 0);
  Alcotest.(check bool)
    (Printf.sprintf "pruned I/O %d < visit-all I/O %d" cost_planner.Stats.ios
       cost_all.Stats.ios)
    true
    (cost_planner.Stats.ios < cost_all.Stats.ios)

(* ------------------------------------------------------------------ *)
(* Scatter: fan-out through the worker pool                            *)

module ISS =
  Topk_shard.Shard_set.Make (Topk_interval.Instances.Topk_t2)
    (Topk_interval.Slab_max)
module IOracle = Topk_core.Oracle.Make (IP)

let iparams = Topk_interval.Instances.params ()

module IScatter = Topk_shard.Scatter.Make (ISS) (Topk_interval.Instances.Topk_t2)

let with_pool ~workers f =
  let pool = Executor.create ~workers () in
  Fun.protect ~finally:(fun () -> Executor.shutdown pool) (fun () -> f pool)

let test_scatter_exact_and_accounted () =
  let elems = interval_elems 941 2000 in
  let oracle = IOracle.build elems in
  let set =
    ISS.of_elems ~params:iparams ~strategy:(Partitioner.Range IP.weight)
      ~shards:8 elems
  in
  with_pool ~workers:4 (fun pool ->
      let registry = Registry.create () in
      let sc = IScatter.create pool registry ~name:"itv" set in
      Alcotest.(check int) "8 shard instances registered" 8
        (List.length (Registry.list registry));
      let queries = interval_queries 942 60 in
      (* From here on, every I/O in the process belongs to these
         logical queries: per-leg costs on the worker domains, scatter
         overhead on this one. *)
      Stats.reset_all ();
      let total = ref Stats.zero_snapshot in
      let pruned = ref 0 in
      Array.iter
        (fun q ->
          List.iter
            (fun k ->
              let r = IScatter.query sc q ~k in
              Alcotest.(check (list int))
                (Printf.sprintf "scatter top-%d = oracle" k)
                (List.map IP.id (IOracle.top_k oracle q ~k))
                (List.map IP.id r.IScatter.answers);
              Alcotest.(check string)
                "complete" "complete"
                (Response.status_string r.IScatter.status);
              Alcotest.(check bool)
                "fanout + pruned + empty = shards" true
                (r.IScatter.fanout + r.IScatter.pruned + r.IScatter.empty = 8);
              total := Stats.add !total r.IScatter.cost;
              pruned := !pruned + r.IScatter.pruned)
            [ 1; 4; 16 ])
        queries;
      Executor.drain pool;
      (* The acceptance contract: summed per-query costs reproduce the
         process-wide EM accounting exactly — nothing double-charged,
         nothing lost across domains. *)
      let agg = Stats.aggregate () in
      Alcotest.(check int) "ios accounted" agg.Stats.ios !total.Stats.ios;
      Alcotest.(check int)
        "scans accounted" agg.Stats.scanned !total.Stats.scanned;
      (* Weight-range sharding must let the bound fire. *)
      Alcotest.(check bool)
        (Printf.sprintf "shards pruned > 0 (got %d)" !pruned)
        true (!pruned > 0);
      let m = Executor.metrics pool in
      Alcotest.(check int)
        "sharded_queries metric" 180
        (Metrics.Counter.get m.Metrics.sharded_queries);
      Alcotest.(check int)
        "fanout histogram count" 180
        (Metrics.Histogram.count m.Metrics.fanout);
      Alcotest.(check int)
        "shards_pruned metric" !pruned
        (Metrics.Counter.get m.Metrics.shards_pruned);
      Alcotest.(check int)
        "per-leg latency observations"
        (Metrics.Histogram.count m.Metrics.shard_latency_us)
        (Metrics.Histogram.count m.Metrics.shard_ios))

let test_scatter_cutoffs () =
  let elems = interval_elems 951 1500 in
  let oracle = IOracle.build elems in
  let set =
    ISS.of_elems ~params:iparams ~strategy:(Partitioner.Hash IP.id) ~shards:6
      elems
  in
  with_pool ~workers:3 (fun pool ->
      let registry = Registry.create () in
      let sc = IScatter.create pool registry ~name:"itv" set in
      let queries = interval_queries 952 25 in
      (* Per-leg budget 0: every leg is cut off before doing anything,
         nothing is certified, and the join says so. *)
      let r0 =
        IScatter.query sc ~limits:(Limits.make ~budget:0 ()) queries.(0) ~k:10
      in
      Alcotest.(check string)
        "budget 0 status" "cutoff:budget"
        (Response.status_string r0.IScatter.status);
      Alcotest.(check int) "budget 0 answers" 0 (List.length r0.IScatter.answers);
      (* An already-expired deadline behaves the same, flagged as such. *)
      let rd =
        IScatter.query sc
          ~limits:(Limits.make ~deadline:(Topk_util.Clock.now () -. 1.) ())
          queries.(0) ~k:10
      in
      Alcotest.(check string)
        "expired deadline status" "cutoff:deadline"
        (Response.status_string rd.IScatter.status);
      (* A small budget yields a certified prefix of the true answer —
         possibly shorter, never wrong. *)
      Array.iter
        (fun q ->
          let r =
            IScatter.query sc ~limits:(Limits.make ~budget:3 ()) q ~k:20
          in
          let got = List.map IP.id r.IScatter.answers in
          let truth = List.map IP.id (IOracle.top_k oracle q ~k:20) in
          let plen = List.length got in
          Alcotest.(check (list int))
            (Printf.sprintf "certified prefix (|prefix| = %d)" plen)
            (List.filteri (fun i _ -> i < plen) truth)
            got)
        queries;
      (* Validation. *)
      Alcotest.check_raises "k = 0 rejected"
        (Invalid_argument "Scatter.query: k must be positive (got 0)")
        (fun () -> ignore (IScatter.query sc queries.(0) ~k:0)))

let test_scatter_wave_one_matches () =
  (* On a one-worker pool the wave is 1, which degenerates to the
     sequential planner's fully-adaptive visit order; answers must
     still be exact. *)
  let elems = interval_elems 961 800 in
  let oracle = IOracle.build elems in
  let set =
    ISS.of_elems ~params:iparams ~strategy:(Partitioner.Range IP.weight)
      ~shards:8 elems
  in
  with_pool ~workers:1 (fun pool ->
      let registry = Registry.create () in
      let sc = IScatter.create pool registry ~name:"itv" set in
      Array.iter
        (fun q ->
          let r = IScatter.query sc q ~k:12 in
          Alcotest.(check (list int))
            "wave-1 scatter = oracle"
            (List.map IP.id (IOracle.top_k oracle q ~k:12))
            (List.map IP.id r.IScatter.answers))
        (interval_queries 962 30))

let () =
  Alcotest.run "topk_shard"
    [
      ( "partitioner",
        [
          Alcotest.test_case "disjoint cover, exact sizes" `Quick
            test_partitioner_cover;
          Alcotest.test_case "validation" `Quick test_partitioner_validation;
        ] );
      ( "gather",
        [
          Alcotest.test_case "k-way merge = sorted concat" `Quick
            test_gather_merge;
          Alcotest.test_case "certified merge semantics" `Quick
            test_gather_certified;
          QCheck_alcotest.to_alcotest prop_gather_merge_is_sort_take;
        ] );
      ("planner-interval", F_interval.suite);
      ("planner-range", F_range.suite);
      ("planner-ortho", F_ortho.suite);
      ( "pruning-economics",
        [
          Alcotest.test_case "pruning beats visit-all on scan shards" `Quick
            test_pruning_saves_io;
        ] );
      ( "scatter",
        [
          Alcotest.test_case "exact answers, exact EM accounting" `Quick
            test_scatter_exact_and_accounted;
          Alcotest.test_case "budget/deadline cutoffs certify prefixes" `Quick
            test_scatter_cutoffs;
          Alcotest.test_case "wave=1 degenerates to the planner" `Quick
            test_scatter_wave_one_matches;
        ] );
    ]
