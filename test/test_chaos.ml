(* Chaos tests: the serving pool under the EM fault model.

   A seeded fault plan (>= 5% transient fault probability per charged
   block I/O) is armed over a mixed interval-stabbing + 1D-range
   workload on a 4-worker pool, and one worker domain is killed
   mid-run.  The pool must degrade gracefully, not silently:

   - every submitted future resolves (no hang, no leak);
   - every answer that is not flagged [Failed] equals the sequential
     oracle's answer, element for element;
   - transient faults were actually injected and retried;
   - the killed worker was respawned by the supervisor.

   Shutdown under chaos must likewise resolve every future. *)

module Clock = Topk_util.Clock
module Rng = Topk_util.Rng
module Gen = Topk_util.Gen
module Stats = Topk_em.Stats
module Fault = Topk_em.Fault
module I = Topk_interval.Interval
module IInst = Topk_interval.Instances
module W = Topk_range.Wpoint
module RInst = Topk_range.Instances
module Registry = Topk_service.Registry
module Executor = Topk_service.Executor
module Breaker = Topk_service.Breaker
module Response = Topk_service.Response
module Future = Topk_service.Future
module Metrics = Topk_service.Metrics
module Error = Topk_service.Error

let interval_ids = List.map (fun (e : I.t) -> e.I.id)

let wpoint_ids = List.map (fun (e : W.t) -> e.W.id)

type fixture = {
  itv_h : (float, I.t) Registry.handle;
  rng_h : (float * float, W.t) Registry.handle;
  stabs : float array;
  ranges : (float * float) array;
  (* Oracle answers, computed sequentially before any fault is armed:
     [oracle.(i)] is the exact top-k id list of query [i]. *)
  itv_oracle : int list array;
  rng_oracle : int list array;
}

let make_fixture ?(n = 3000) ?(queries = 240) ~seed ~k () =
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
  let itv_naive = IInst.Topk_naive.build elems in
  let rng_naive = RInst.Topk_naive.build pts in
  let itv_oracle =
    Array.map
      (fun q -> interval_ids (IInst.Topk_naive.query itv_naive q ~k))
      stabs
  in
  let rng_oracle =
    Array.map (fun q -> wpoint_ids (RInst.Topk_naive.query rng_naive q ~k)) ranges
  in
  { itv_h; rng_h; stabs; ranges; itv_oracle; rng_oracle }

(* A breaker policy that cannot trip within one test run: the trip
   condition needs a full window of samples, and the workload is
   smaller than the window.  The chaos tests exercise retry/respawn,
   not admission control (that has its own tests in [test_service]). *)
let never_trips =
  {
    Breaker.default_policy with
    Breaker.window = 4096;
    min_samples = 4096;
    failure_threshold = 1.0;
  }

let test_pool_survives_fault_plan () =
  Fault.clear ();
  let k = 10 in
  let fx = make_fixture ~seed:101 ~k () in
  let queries = Array.length fx.stabs in
  let plan =
    Fault.plan ~seed:42 ~io_fault_rate:0.05 ~latency_rate:0.01 ~latency_s:2e-5
      ()
  in
  let pool =
    Executor.create ~workers:4 ~queue_capacity:1024
      ~retry:
        {
          Executor.default_retry_policy with
          Executor.max_retries = 6;
          base_backoff = 2e-4;
          max_backoff = 2e-3;
        }
      ~breaker:never_trips ~seed:7 ()
  in
  Fun.protect
    ~finally:(fun () ->
      Executor.shutdown pool;
      Fault.clear ())
    (fun () ->
      let faults_before = Fault.injected_total () in
      Fault.install plan;
      let itv_futs =
        Array.map (fun q -> Executor.submit pool fx.itv_h q ~k) fx.stabs
      in
      let rng_futs =
        Array.map (fun q -> Executor.submit pool fx.rng_h q ~k) fx.ranges
      in
      (* Kill worker 0 mid-run; the supervisor must respawn it. *)
      Executor.inject_worker_crash pool 0;
      (* Every future resolves; non-faulted answers are exact. *)
      let exact = ref 0 and failed = ref 0 and resolved = ref 0 in
      let check oracle ids fut =
        let r = Future.await fut in
        incr resolved;
        match r.Response.status with
        | Response.Failed _ -> incr failed
        | _ ->
            incr exact;
            Alcotest.(check (list int))
              "non-faulted answer equals the sequential oracle" oracle
              (ids r.Response.answers)
      in
      Array.iteri
        (fun i fut -> check fx.itv_oracle.(i) interval_ids fut)
        itv_futs;
      Array.iteri (fun i fut -> check fx.rng_oracle.(i) wpoint_ids fut) rng_futs;
      Alcotest.(check int) "all futures resolved" (2 * queries) !resolved;
      Alcotest.(check bool)
        (Printf.sprintf "some queries completed exactly (%d exact, %d failed)"
           !exact !failed)
        true (!exact > 0);
      Executor.drain pool;
      (* Chaos actually happened: faults were injected in the EM layer,
         escaped to the serving layer, and were retried. *)
      let m = Executor.metrics pool in
      Alcotest.(check bool)
        "faults were injected" true
        (Fault.injected_total () > faults_before);
      Alcotest.(check bool)
        "transients escaped to the serving layer" true
        (Metrics.Counter.get m.Metrics.faults_injected > 0);
      Alcotest.(check bool)
        "transients were retried" true
        (Metrics.Counter.get m.Metrics.retries > 0);
      (* The killed worker was respawned (bounded wait: the supervisor
         ticks every 0.5ms, but give CI plenty of slack). *)
      let deadline = Clock.now () +. 5. in
      while
        Metrics.Counter.get m.Metrics.respawns = 0
        && Clock.now () < deadline
      do
        Unix.sleepf 0.005
      done;
      Alcotest.(check bool)
        "killed worker was respawned" true
        (Metrics.Counter.get m.Metrics.respawns >= 1);
      (* The pool is still healthy after the chaos: with the plan
         cleared, a fresh query is complete and exact. *)
      Fault.clear ();
      let r = Future.await (Executor.submit pool fx.itv_h fx.stabs.(0) ~k) in
      Alcotest.(check string)
        "post-chaos query completes" "complete"
        (Response.status_string r.Response.status);
      Alcotest.(check (list int))
        "post-chaos answer exact" fx.itv_oracle.(0)
        (interval_ids r.Response.answers))

(* Shutdown in the middle of a chaotic backlog: every future still
   resolves — finished ones with their real status, swept ones as
   [Failed "shutdown"] — and nothing hangs. *)
let test_shutdown_under_chaos_resolves_everything () =
  Fault.clear ();
  let k = 8 in
  let fx = make_fixture ~n:2000 ~queries:160 ~seed:313 ~k () in
  let pool =
    Executor.create ~workers:2 ~queue_capacity:512 ~batch_max:4
      ~breaker:never_trips ~seed:5 ()
  in
  Fault.install (Fault.plan ~seed:99 ~io_fault_rate:0.3 ());
  Fun.protect
    ~finally:(fun () -> Fault.clear ())
    (fun () ->
      let await_status fut () = (Future.await fut).Response.status in
      let futs =
        Array.to_list
          (Array.map
             (fun q -> await_status (Executor.submit pool fx.itv_h q ~k))
             fx.stabs)
        @ Array.to_list
            (Array.map
               (fun q -> await_status (Executor.submit pool fx.rng_h q ~k))
               fx.ranges)
      in
      (* Shut down immediately: most of the backlog is still queued. *)
      Executor.shutdown pool;
      let swept, finished =
        List.partition
          (fun wait ->
            match wait () with
            | Response.Failed (Error.Failed "shutdown") -> true
            | _ -> false)
          futs
      in
      Alcotest.(check int)
        "every future resolved" 320
        (List.length swept + List.length finished);
      Alcotest.(check bool)
        (Printf.sprintf "backlog was swept (%d swept)" (List.length swept))
        true
        (List.length swept > 0);
      let m = Executor.metrics pool in
      Alcotest.(check int)
        "aborted counter matches the sweep" (List.length swept)
        (Metrics.Counter.get m.Metrics.aborted))

let () =
  Alcotest.run "chaos"
    [
      ( "chaos",
        [
          Alcotest.test_case "pool survives a seeded fault plan" `Quick
            test_pool_survives_fault_plan;
          Alcotest.test_case "shutdown under chaos resolves everything" `Quick
            test_shutdown_under_chaos_resolves_everything;
        ] );
    ]
