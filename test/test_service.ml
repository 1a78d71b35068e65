(* Tests for the concurrent serving subsystem: a multi-domain pool must
   agree answer-for-answer with the sequential oracle, its per-domain
   EM accounting must aggregate to the single-threaded totals, and
   under-budgeted queries must degrade to flagged certified prefixes. *)

module Rng = Topk_util.Rng
module Gen = Topk_util.Gen
module Stats = Topk_em.Stats
module I = Topk_interval.Interval
module IInst = Topk_interval.Instances
module W = Topk_range.Wpoint
module RInst = Topk_range.Instances
module Registry = Topk_service.Registry
module Executor = Topk_service.Executor
module Breaker = Topk_service.Breaker
module Response = Topk_service.Response
module Limits = Topk_service.Limits
module Future = Topk_service.Future
module Metrics = Topk_service.Metrics
module Error = Topk_service.Error
module Clock = Topk_util.Clock

let interval_ids = List.map (fun (e : I.t) -> e.I.id)

let wpoint_ids = List.map (fun (e : W.t) -> e.W.id)

(* One mixed workload shared by the tests: interval stabbing and 1D
   range reporting instances behind one registry, plus their Naive
   oracles. *)
type fixture = {
  registry : Registry.t;
  itv_h : (float, I.t) Registry.handle;
  rng_h : (float * float, W.t) Registry.handle;
  itv_naive : IInst.Topk_naive.t;
  rng_naive : RInst.Topk_naive.t;
  stabs : float array;
  ranges : (float * float) array;
}

let make_fixture ?(n = 3000) ?(queries = 120) ~seed () =
  let rng = Rng.create seed in
  let elems =
    I.of_spans rng (Gen.intervals rng ~shape:Gen.Mixed_intervals ~n)
  in
  let pts = W.of_positions rng (Array.init n (fun _ -> Rng.uniform rng)) in
  let registry = Registry.create () in
  let itv_h =
    Registry.register registry ~name:"intervals"
      (module IInst.Topk_t2)
      (IInst.Topk_t2.build ~params:(IInst.params ()) elems)
  in
  let rng_h =
    Registry.register registry ~name:"range1d"
      (module RInst.Topk_t2)
      (RInst.Topk_t2.build ~params:(RInst.params ()) pts)
  in
  let stabs = Gen.stab_queries rng ~n:queries in
  let ranges =
    Array.init queries (fun _ ->
        let a = Rng.uniform rng and b = Rng.uniform rng in
        (Float.min a b, Float.max a b))
  in
  {
    registry;
    itv_h;
    rng_h;
    itv_naive = IInst.Topk_naive.build elems;
    rng_naive = RInst.Topk_naive.build pts;
    stabs;
    ranges;
  }

(* (a) A 4-worker pool over the mixed workload returns exactly the
   sequential oracle's answers for every request. *)
let test_pool_matches_oracle () =
  let fx = make_fixture ~seed:11 () in
  let k = 10 in
  let pool = Executor.create ~workers:4 ~queue_capacity:64 () in
  let itv_futs =
    Array.map (fun q -> Executor.submit pool fx.itv_h q ~k) fx.stabs
  in
  let rng_futs =
    Array.map (fun q -> Executor.submit pool fx.rng_h q ~k) fx.ranges
  in
  Array.iteri
    (fun i fut ->
      let r = Future.await fut in
      Alcotest.(check string)
        "status" "complete"
        (Response.status_string r.Response.status);
      Alcotest.(check (list int))
        (Printf.sprintf "stab query %d" i)
        (interval_ids (IInst.Topk_naive.query fx.itv_naive fx.stabs.(i) ~k))
        (interval_ids r.Response.answers))
    itv_futs;
  Array.iteri
    (fun i fut ->
      let r = Future.await fut in
      Alcotest.(check (list int))
        (Printf.sprintf "range query %d" i)
        (wpoint_ids (RInst.Topk_naive.query fx.rng_naive fx.ranges.(i) ~k))
        (wpoint_ids r.Response.answers))
    rng_futs;
  let m = Executor.metrics pool in
  Alcotest.(check int)
    "completed counter" (2 * Array.length fx.stabs)
    (Metrics.Counter.get m.Metrics.completed);
  Executor.shutdown pool;
  Alcotest.check_raises "submit after shutdown"
    (Error.Error (Error.Failed "shutdown")) (fun () ->
      ignore (Executor.submit pool fx.itv_h 0.5 ~k))

(* (b) Per-domain I/O counters aggregated across the pool's workers
   equal the single-threaded totals for the same workload. *)
let test_aggregated_counters_match_sequential () =
  let fx = make_fixture ~seed:23 () in
  let k = 8 in
  (* Sequential reference on this domain, through the same execution
     path as the workers (including per-query carry rounding). *)
  let (), seq =
    Stats.measure (fun () ->
        Array.iter
          (fun q ->
            ignore (Registry.h_exec fx.itv_h q ~k ~budget:None ~deadline:None))
          fx.stabs;
        Array.iter
          (fun q ->
            ignore (Registry.h_exec fx.rng_h q ~k ~budget:None ~deadline:None))
          fx.ranges)
  in
  let pool = Executor.create ~workers:4 ~queue_capacity:32 () in
  let futs =
    Array.to_list
      (Array.map
         (fun q ->
           let f = Executor.submit pool fx.itv_h q ~k in
           fun () -> ignore (Future.await f))
         fx.stabs)
    @ Array.to_list
        (Array.map
           (fun q ->
             let f = Executor.submit pool fx.rng_h q ~k in
             fun () -> ignore (Future.await f))
           fx.ranges)
  in
  List.iter (fun wait -> wait ()) futs;
  Executor.drain pool;
  Executor.shutdown pool;
  let par = Executor.aggregate_stats pool in
  Alcotest.(check int) "ios" seq.Stats.ios par.Stats.ios;
  Alcotest.(check int) "scanned" seq.Stats.scanned par.Stats.scanned;
  Alcotest.(check int) "queries" seq.Stats.queries par.Stats.queries;
  (* The work is actually spread over several workers. *)
  Alcotest.(check bool)
    "more than one worker charged" true
    (List.length (Executor.worker_stats pool) > 1)

(* (c) An under-budgeted query is flagged and carries a certified
   prefix of the true top-k; the pool keeps serving afterwards. *)
let test_budget_cutoff_certified_prefix () =
  let rng = Rng.create 37 in
  let n = 20_000 in
  (* Nested intervals: the stabbing set at the centre has size Θ(n),
     so a generous k forces real reporting work. *)
  let elems =
    I.of_spans rng (Gen.intervals rng ~shape:Gen.Nested_intervals ~n)
  in
  let registry = Registry.create () in
  let h =
    Registry.register registry ~name:"nested"
      (module IInst.Topk_t2)
      (IInst.Topk_t2.build ~params:(IInst.params ()) elems)
  in
  let naive = IInst.Topk_naive.build elems in
  let k = 64 in
  let pool = Executor.create ~workers:2 ~queue_capacity:8 () in
  let starved =
    Future.await
      (Executor.submit pool h 0.5 ~k ~limits:(Limits.make ~budget:2 ()))
  in
  Alcotest.(check bool) "flagged partial" true (Response.is_partial starved);
  Alcotest.(check string)
    "status" "cutoff:budget"
    (Response.status_string starved.Response.status);
  let got = List.length starved.Response.answers in
  Alcotest.(check bool) "nonempty prefix" true (got >= 1);
  Alcotest.(check bool) "shorter than k" true (got < k);
  let oracle = IInst.Topk_naive.query naive 0.5 ~k in
  Alcotest.(check (list int))
    "certified prefix of the true top-k"
    (interval_ids (List.filteri (fun i _ -> i < got) oracle))
    (interval_ids starved.Response.answers);
  (* The pool is still healthy: the same query unbudgeted is complete
     and exact. *)
  let full = Future.await (Executor.submit pool h 0.5 ~k) in
  Alcotest.(check bool) "complete" false (Response.is_partial full);
  Alcotest.(check (list int))
    "full answer" (interval_ids oracle)
    (interval_ids full.Response.answers);
  let m = Executor.metrics pool in
  Alcotest.(check int)
    "cutoff counter" 1
    (Metrics.Counter.get m.Metrics.cutoff_budget);
  Executor.shutdown pool

(* --- supervision ---

   A controllable toy instance: its behaviour is selected through an
   atomic, so a test can make the handler succeed, raise, or stall at
   will — the failure modes the supervision layer must contain. *)

module Toy_problem = struct
  type elem = int

  type query = unit

  let weight e = float_of_int e

  let id e = e

  let matches () _ = true

  let pp_elem = Format.pp_print_int

  let pp_query ppf () = Format.pp_print_string ppf "()"
end

let toy_behaviour : [ `Ok | `Raise | `Sleep of float ] Atomic.t =
  Atomic.make `Ok

module Toy = struct
  module P = Toy_problem

  type t = int list  (* sorted by decreasing weight *)

  let name = "toy"

  let build ?params:_ elems =
    List.sort (fun a b -> compare b a) (Array.to_list elems)

  let size = List.length

  let space_words = List.length

  let query t () ~k =
    (match Atomic.get toy_behaviour with
    | `Ok -> ()
    | `Raise -> failwith "toy handler exploded"
    | `Sleep s -> Unix.sleepf s);
    List.filteri (fun i _ -> i < k) t
end

let toy_handle () =
  let registry = Registry.create () in
  Registry.register registry ~name:"toy"
    (module Toy)
    (Toy.build (Array.init 16 (fun i -> i)))

let string_contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec at i = i + n <= h && (String.sub hay i n = needle || at (i + 1)) in
  n = 0 || at 0

(* Regression: an exception escaping a handler must neither kill the
   worker domain nor leak the pending count — the query resolves as
   [Failed], [drain] returns, and the pool keeps serving. *)
let test_raising_handler_is_contained () =
  Atomic.set toy_behaviour `Raise;
  let h = toy_handle () in
  let pool = Executor.create ~workers:2 ~queue_capacity:16 () in
  let futs = List.init 8 (fun _ -> Executor.submit pool h () ~k:3) in
  List.iter
    (fun f ->
      match (Future.await f).Response.status with
      | Response.Failed e ->
          let msg = Error.to_string e in
          Alcotest.(check bool)
            (Printf.sprintf "failure names the exception (got %S)" msg)
            true
            (string_contains ~needle:"toy handler exploded" msg)
      | s ->
          Alcotest.failf "expected Failed, got %s" (Response.status_string s))
    futs;
  (* [drain] must return: a leaked pending count would hang here. *)
  Executor.drain pool;
  let m = Executor.metrics pool in
  Alcotest.(check int) "failed counter" 8 (Metrics.Counter.get m.Metrics.failed);
  (* Both workers survived the exceptions: the pool still serves. *)
  Atomic.set toy_behaviour `Ok;
  let r = Future.await (Executor.submit pool h () ~k:3) in
  Alcotest.(check string)
    "healthy again" "complete"
    (Response.status_string r.Response.status);
  Alcotest.(check (list int)) "exact answer" [ 15; 14; 13 ] r.Response.answers;
  Executor.shutdown pool

(* Regression: [shutdown] must resolve every still-queued future as
   [Failed "shutdown"] instead of dropping it — a caller blocked in
   [Future.await] is released, not hung forever. *)
let test_shutdown_resolves_queued_futures () =
  Atomic.set toy_behaviour `Ok;
  let h = toy_handle () in
  let pool = Executor.create ~workers:1 ~batch_max:1 ~queue_capacity:16 () in
  (* One slow request occupies the single worker... *)
  Atomic.set toy_behaviour (`Sleep 0.4);
  let inflight = Executor.submit pool h () ~k:2 in
  Unix.sleepf 0.1;
  (* ...so these four stay queued behind it. *)
  Atomic.set toy_behaviour `Ok;
  let queued = List.init 4 (fun _ -> Executor.submit pool h () ~k:2) in
  let blocked =
    Domain.spawn (fun () ->
        (Future.await (List.nth queued 3)).Response.status)
  in
  Executor.shutdown pool;
  List.iter
    (fun f ->
      Alcotest.(check string)
        "queued future resolved by shutdown" "failed:shutdown"
        (Response.status_string (Future.await f).Response.status))
    queued;
  Alcotest.(check string)
    "blocked awaiter released" "failed:shutdown"
    (Response.status_string (Domain.join blocked));
  Alcotest.(check string)
    "in-flight request finished normally" "complete"
    (Response.status_string (Future.await inflight).Response.status);
  let m = Executor.metrics pool in
  Alcotest.(check int)
    "aborted counter" 4
    (Metrics.Counter.get m.Metrics.aborted)

(* The idle worker spins on the queue for [Spin.bound] before it
   parks.  A kill or a shutdown issued right after a request resolves
   (while the only worker is most likely spinning) must still take
   effect: the killed worker is respawned and counted, and shutdown
   returns. *)
let test_kill_and_shutdown_while_spinning () =
  Atomic.set toy_behaviour `Ok;
  let h = toy_handle () in
  let status fut = Response.status_string (Future.await fut).Response.status in
  let pool = Executor.create ~workers:1 () in
  let m = Executor.metrics pool in
  let kills = 5 in
  for i = 1 to kills do
    Alcotest.(check string) "served before the kill" "complete"
      (status (Executor.submit pool h () ~k:2));
    Executor.inject_worker_crash pool 0;
    let deadline = Clock.now () +. 5. in
    while
      Metrics.Counter.get m.Metrics.respawns < i && Clock.now () < deadline
    do
      Unix.sleepf 0.001
    done;
    Alcotest.(check int) "respawn counted" i
      (Metrics.Counter.get m.Metrics.respawns)
  done;
  Alcotest.(check string) "respawned worker serves" "complete"
    (status (Executor.submit pool h () ~k:2));
  Executor.shutdown pool;
  for _ = 1 to 5 do
    let pool = Executor.create ~workers:1 () in
    Alcotest.(check string) "served before shutdown" "complete"
      (status (Executor.submit pool h () ~k:2));
    Executor.shutdown pool
  done

(* The circuit breaker: persistent failures trip it open (submissions
   shed load), the open window expires into half-open probing, and
   probe successes close it again. *)
let test_breaker_admission_control () =
  Atomic.set toy_behaviour `Ok;
  let h = toy_handle () in
  let policy =
    {
      Breaker.window = 16;
      min_samples = 8;
      failure_threshold = 0.5;
      open_duration = 0.3;
      half_open_probes = 2;
    }
  in
  let pool = Executor.create ~workers:1 ~queue_capacity:32 ~breaker:policy () in
  Alcotest.(check string)
    "starts closed" "closed"
    (Breaker.state_string (Executor.breaker_state pool));
  Atomic.set toy_behaviour `Raise;
  let futs = List.init 8 (fun _ -> Executor.submit pool h () ~k:1) in
  List.iter (fun f -> ignore (Future.await f)) futs;
  (* Outcomes are recorded before the pending count is released, so
     after [drain] the breaker has seen all eight failures. *)
  Executor.drain pool;
  Alcotest.(check string)
    "tripped open" "open"
    (Breaker.state_string (Executor.breaker_state pool));
  Alcotest.check_raises "submit sheds load" (Error.Error Error.Overloaded)
    (fun () ->
      ignore (Executor.submit pool h () ~k:1));
  Alcotest.(check bool)
    "try_submit sheds load" true
    (Executor.try_submit pool h () ~k:1 = None);
  let m = Executor.metrics pool in
  Alcotest.(check bool)
    "rejections counted" true
    (Metrics.Counter.get m.Metrics.breaker_rejected >= 2);
  Alcotest.(check int)
    "one trip recorded" 1
    (Metrics.Counter.get m.Metrics.breaker_opens);
  (* After the open window a probe is admitted (half-open); enough
     probe successes close the breaker. *)
  Atomic.set toy_behaviour `Ok;
  Unix.sleepf 0.35;
  let p1 = Executor.submit pool h () ~k:1 in
  Alcotest.(check string)
    "probe admitted: half-open" "half-open"
    (Breaker.state_string (Executor.breaker_state pool));
  Alcotest.(check string)
    "probe 1 succeeds" "complete"
    (Response.status_string (Future.await p1).Response.status);
  Executor.drain pool;
  let p2 = Executor.submit pool h () ~k:1 in
  Alcotest.(check string)
    "probe 2 succeeds" "complete"
    (Response.status_string (Future.await p2).Response.status);
  Executor.drain pool;
  Alcotest.(check string)
    "closed again" "closed"
    (Breaker.state_string (Executor.breaker_state pool));
  let r = Future.await (Executor.submit pool h () ~k:3) in
  Alcotest.(check string)
    "serving normally" "complete"
    (Response.status_string r.Response.status);
  Executor.shutdown pool

(* Registry bookkeeping. *)
let test_registry () =
  let fx = make_fixture ~n:500 ~queries:1 ~seed:5 () in
  let infos = Registry.list fx.registry in
  Alcotest.(check (list string))
    "names in registration order" [ "intervals"; "range1d" ]
    (List.map (fun (i : Registry.info) -> i.Registry.name) infos);
  Alcotest.(check bool) "mem" true (Registry.mem fx.registry "range1d");
  Alcotest.(check bool) "not mem" false (Registry.mem fx.registry "nope");
  (match Registry.resolve fx.registry "intervals" with
  | Error _ -> Alcotest.fail "resolve"
  | Ok i -> Alcotest.(check int) "size" 500 i.Registry.size);
  (* Lookup miss: every registered instance comes back as a
     suggestion, ranked by edit distance to the requested name. *)
  (match Registry.resolve fx.registry "interval" with
  | Ok _ -> Alcotest.fail "resolve miss"
  | Error (Error.Not_found suggestions) ->
      Alcotest.(check (list string))
        "suggestions ranked by distance" [ "intervals"; "range1d" ]
        suggestions
  | Error e -> Alcotest.failf "expected Not_found, got %s" (Error.to_string e));
  (* Duplicate registration: the error names the incumbent structure. *)
  Alcotest.check_raises "duplicate name"
    (Invalid_argument
       "Registry.register: duplicate instance \"intervals\" (already \
        registered as theorem2(seg-stab+slab-max), n=500)") (fun () ->
      ignore
        (Registry.register fx.registry ~name:"intervals"
           (module IInst.Topk_naive)
           (IInst.Topk_naive.build [||])))

(* Request validation. *)
let test_request_validation () =
  let fx = make_fixture ~n:100 ~queries:1 ~seed:3 () in
  Alcotest.check_raises "k = 0"
    (Invalid_argument "Request: k must be positive (got 0)") (fun () ->
      ignore (Topk_service.Request.prepare fx.itv_h 0.5 ~k:0));
  Alcotest.check_raises "negative budget"
    (Invalid_argument "Request: budget must be >= 0 (got -1)") (fun () ->
      ignore
        (Topk_service.Request.prepare fx.itv_h
           ~limits:{ Limits.budget = Some (-1); deadline = None }
           0.5 ~k:1));
  Alcotest.check_raises "Limits.make rejects negative budget"
    (Invalid_argument "Limits: budget must be >= 0 (got -2)") (fun () ->
      ignore (Limits.make ~budget:(-2) ()))

(* Metrics histogram math, single-threaded. *)
let test_metrics_histogram () =
  let h = Metrics.Histogram.create () in
  for v = 1 to 100 do
    Metrics.Histogram.observe h v
  done;
  Alcotest.(check int) "count" 100 (Metrics.Histogram.count h);
  Alcotest.(check int) "sum" 5050 (Metrics.Histogram.sum h);
  Alcotest.(check int) "max" 100 (Metrics.Histogram.max_value h);
  let p50 = Metrics.Histogram.percentile h 0.50 in
  Alcotest.(check bool)
    (Printf.sprintf "p50 within bucket (got %d)" p50)
    true
    (p50 >= 50 && p50 <= 127);
  Alcotest.(check int) "p100 clamps to max" 100
    (Metrics.Histogram.percentile h 1.0);
  Alcotest.(check int) "empty" 0
    (Metrics.Histogram.percentile (Metrics.Histogram.create ()) 0.99)

(* Text exposition: the report must carry every durability counter
   (zero-valued on a fresh registry), render empty histograms without
   dividing by zero, and reflect counter/gauge/histogram updates. *)
let test_metrics_report () =
  let m = Metrics.create () in
  let has needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
    go 0
  in
  let r0 = Metrics.report m in
  List.iter
    (fun line ->
      Alcotest.(check bool) ("fresh report has " ^ line) true (has (line ^ " 0\n") r0))
    [
      "topk_wal_appends";
      "topk_wal_fsyncs";
      "topk_checkpoints";
      "topk_recoveries";
      "topk_torn_tails";
      "topk_checksum_failures";
      "topk_scrubs";
      "topk_queries_submitted";
      "topk_cache_hits";
      "topk_cache_misses";
      "topk_cache_evictions";
      "topk_cache_bypasses";
    ];
  Alcotest.(check bool) "fresh cache hit rate" true
    (has "topk_cache_hit_rate 0.0000\n" r0);
  Alcotest.(check bool) "hit-age histogram" true
    (has "topk_cache_hit_age_us_count 0\n" r0);
  (* An empty histogram renders zeros (and a 0.0 mean, not a NaN). *)
  Alcotest.(check bool) "empty histogram count" true
    (has "topk_recovery_time_us_count 0\n" r0);
  Alcotest.(check bool) "empty histogram p99" true
    (has "topk_recovery_time_us_p99 0\n" r0);
  Alcotest.(check bool) "empty histogram mean" true
    (has "topk_recovery_time_us_mean 0.0\n" r0);
  (* Updates show up. *)
  Metrics.Counter.incr m.Metrics.wal_appends;
  Metrics.Counter.incr m.Metrics.wal_appends;
  Metrics.Counter.incr m.Metrics.torn_tails;
  Metrics.Gauge.set m.Metrics.queue_depth 7;
  Metrics.Histogram.observe m.Metrics.recovery_time_us 0;
  let r1 = Metrics.report m in
  Alcotest.(check bool) "counter renders" true (has "topk_wal_appends 2\n" r1);
  Alcotest.(check bool) "torn tails render" true (has "topk_torn_tails 1\n" r1);
  Alcotest.(check bool) "gauge renders" true (has "topk_queue_depth 7\n" r1);
  (* A single zero observation: count 1, everything else still 0. *)
  Alcotest.(check bool) "zero observation count" true
    (has "topk_recovery_time_us_count 1\n" r1);
  Alcotest.(check bool) "zero observation sum" true
    (has "topk_recovery_time_us_sum 0\n" r1);
  Alcotest.(check bool) "zero observation max" true
    (has "topk_recovery_time_us_max 0\n" r1);
  (* p99 clamps to the exact max, not a bucket edge. *)
  Metrics.Histogram.observe m.Metrics.recovery_time_us 1000;
  Alcotest.(check int) "p99 clamps to max" 1000
    (Metrics.Histogram.percentile m.Metrics.recovery_time_us 0.99)

(* --- Future: the atomic cell behind every pool hand-off --- *)

(* Run [fs] on their own domains, released together so they race. *)
let race fs =
  let ready = Atomic.make 0 and go = Atomic.make false in
  let ds =
    List.map
      (fun f ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            f ()))
      fs
  in
  while Atomic.get ready < List.length fs do
    Domain.cpu_relax ()
  done;
  Atomic.set go true;
  List.map Domain.join ds

(* A value crosses domains both while the awaiter spins (immediate
   fill) and after it has parked (fill after a sleep of many spin
   bounds), with two awaiters on one future. *)
let test_future_cross_domain () =
  List.iter
    (fun delay ->
      for round = 1 to 20 do
        let fut = Future.create () in
        let other = Domain.spawn (fun () -> Future.await fut) in
        let filler =
          Domain.spawn (fun () ->
              if delay > 0. then Unix.sleepf delay;
              Future.fill fut round)
        in
        Alcotest.(check int) "awaiter sees the value" round (Future.await fut);
        Alcotest.(check int) "second awaiter too" round (Domain.join other);
        Domain.join filler
      done)
    [ 0.; 20. *. Topk_service.Spin.bound ]

(* [on_fill] runs each callback exactly once, whether it is registered
   before the fill, after it, or concurrently with it from another
   domain; a raising callback neither stops the others nor unpublishes
   the value. *)
let test_future_on_fill_once () =
  let fut = Future.create () in
  let before = Atomic.make 0 and after = Atomic.make 0 in
  Future.on_fill fut (fun v -> Atomic.fetch_and_add before v |> ignore);
  Alcotest.(check (option int)) "pending" None (Future.poll fut);
  Alcotest.(check bool) "first fill wins" true (Future.try_fill fut 1);
  Alcotest.(check bool) "second fill loses" false (Future.try_fill fut 2);
  Future.on_fill fut (fun v -> Atomic.fetch_and_add after v |> ignore);
  Alcotest.(check int) "registered before: once" 1 (Atomic.get before);
  Alcotest.(check int) "registered after: once" 1 (Atomic.get after);
  Alcotest.(check (option int)) "filled" (Some 1) (Future.poll fut);
  let n = 200 in
  for _ = 1 to 100 do
    let fut = Future.create () and ran = Atomic.make 0 in
    ignore
      (race
         [
           (fun () ->
             for _ = 1 to n do
               Future.on_fill fut (fun () -> Atomic.incr ran)
             done);
           (fun () -> Future.fill fut ());
         ]);
    Alcotest.(check int) "concurrent registrations: each once" n
      (Atomic.get ran);
    Alcotest.(check (option unit)) "still filled" (Some ()) (Future.poll fut)
  done;
  let fut = Future.create () and ran = Atomic.make 0 in
  Future.on_fill fut (fun () -> Atomic.incr ran);
  Future.on_fill fut (fun () -> failwith "callback exploded");
  Future.on_fill fut (fun () -> Atomic.incr ran);
  Alcotest.check_raises "first callback error re-raised"
    (Failure "callback exploded") (fun () -> Future.fill fut ());
  Alcotest.(check int) "other callbacks ran" 2 (Atomic.get ran);
  Alcotest.(check (option unit)) "value published" (Some ()) (Future.poll fut)

(* Four domains race [try_fill]: exactly one wins, and its value is
   the one every reader sees. *)
let test_future_fill_race () =
  for _ = 1 to 100 do
    let fut = Future.create () in
    let results =
      race (List.init 4 (fun i () -> (i, Future.try_fill fut i)))
    in
    let winners = List.filter snd results in
    Alcotest.(check int) "exactly one winner" 1 (List.length winners);
    Alcotest.(check int) "winner's value" (fst (List.hd winners))
      (Future.await fut)
  done

let () =
  Alcotest.run "service"
    [
      ( "executor",
        [
          Alcotest.test_case "pool matches sequential oracle" `Quick
            test_pool_matches_oracle;
          Alcotest.test_case "per-domain counters aggregate exactly" `Quick
            test_aggregated_counters_match_sequential;
          Alcotest.test_case "budget cutoff yields certified prefix" `Quick
            test_budget_cutoff_certified_prefix;
        ] );
      ( "supervision",
        [
          Alcotest.test_case "raising handler is contained" `Quick
            test_raising_handler_is_contained;
          Alcotest.test_case "shutdown resolves queued futures" `Quick
            test_shutdown_resolves_queued_futures;
          Alcotest.test_case "breaker admission control" `Quick
            test_breaker_admission_control;
          Alcotest.test_case "kill and shutdown while spinning" `Quick
            test_kill_and_shutdown_while_spinning;
        ] );
      ( "registry",
        [
          Alcotest.test_case "registration and lookup" `Quick test_registry;
          Alcotest.test_case "request validation" `Quick
            test_request_validation;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "histogram" `Quick test_metrics_histogram;
          Alcotest.test_case "text exposition" `Quick test_metrics_report;
        ] );
      ( "future",
        [
          Alcotest.test_case "crosses domains, spinning or parked"
            `Quick test_future_cross_domain;
          Alcotest.test_case "on_fill runs exactly once" `Quick
            test_future_on_fill_once;
          Alcotest.test_case "try_fill race has one winner" `Quick
            test_future_fill_race;
        ] );
    ]
