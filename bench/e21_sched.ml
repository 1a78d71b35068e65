(* E21 (extension): QoS lanes — interactive tail latency vs background
   pressure, isolated scheduler vs the single-queue baseline.

   lib/service/sched splits the executor's one FIFO into three lanes
   (interactive / batch / maintenance) under weighted-fair dispatch
   with aging.  Two claims:

   - as the merge rate grows (more updates per round force more
     background level merges onto the batch lane), the single queue
     makes interactive queries wait behind whatever batch work is
     queued ahead of them, while the lane scheduler lets them bypass
     it — a modest effect here, bounded by the few-ms duration of a
     real level merge, since neither policy preempts the job already
     on the worker;
   - under a synthetic batch storm (fixed-length busy tasks flooding
     the batch lane) the effect is starker — the unified p99 tracks
     the storm length, the isolated p99 does not — and maintenance
     heartbeats still run within the aging bound instead of starving
     behind the storm.

   Latencies are wall-clock (submit to completion, measured serially
   so a query's latency is queueing + execution, not the round's
   makespan); both runs of a configuration replay the identical
   seeded schedule. *)

module Clock = Topk_util.Clock
module Rng = Topk_util.Rng
module I = Topk_interval.Interval
module Inst = Topk_interval.Instances
module Ing = Topk_ingest.Ingest.Make (Inst.Topk_t2)
module Svc = Topk_service
module Lane = Topk_service.Lane
module Sched = Topk_service.Sched
module Metrics = Topk_service.Metrics

(* Strictly increasing distinct weights keep the top-k unique. *)
let mk_elem rng id =
  let lo = Rng.uniform rng in
  let hi = Float.min 1.0 (lo +. 0.02 +. (0.3 *. Rng.uniform rng)) in
  I.make ~id ~lo ~hi
    ~weight:(float_of_int id +. (0.5 *. Rng.uniform rng))
    ()

let percentile p latencies =
  let a = Array.of_list latencies in
  Array.sort Float.compare a;
  let len = Array.length a in
  a.(max 0 (int_of_float (ceil (p *. float_of_int len)) - 1))

(* One pass over the seeded schedule: per round, apply the updates,
   flood the batch lane, keep the maintenance heartbeat alive, then
   issue the Zipf query stream serially.  Returns interactive
   (p99, p50) in ms plus merge count and the maintenance lane's max
   dispatch-round wait. *)
let run_pass ~unified ~n ~rounds ~qpr ~upr ~storm ~storm_ms ~seed =
  let distinct = 16 and theta = 1.2 in
  let lanes_cfg =
    if unified then Sched.unified_config () else Sched.default_config ()
  in
  (* One worker: the single "server core" model — background work that
     reaches the worker steals it outright, so what's measured is
     purely which queued job the scheduler hands over next. *)
  let pool = Svc.Executor.create ~workers:1 ~batch_max:1 ~lanes:lanes_cfg () in
  let m = Svc.Executor.metrics pool in
  let rng = Rng.create seed in
  let qpool =
    let qrng = Rng.create (seed lxor 0x51f3) in
    Array.init distinct (fun _ -> Rng.uniform qrng)
  in
  let zipf_cum =
    let c = Array.make distinct 0.0 in
    let acc = ref 0.0 in
    for r = 0 to distinct - 1 do
      acc := !acc +. (1.0 /. Float.pow (float_of_int (r + 1)) theta);
      c.(r) <- !acc
    done;
    c
  in
  let zipf () =
    let u = Rng.uniform rng *. zipf_cum.(distinct - 1) in
    let i = ref 0 in
    while !i < distinct - 1 && zipf_cum.(!i) < u do
      incr i
    done;
    !i
  in
  let base = Array.init n (fun i -> mk_elem rng (i + 1)) in
  let t = Ing.create ~params:(Inst.params ()) ~buffer_cap:128 ~pool base in
  let next_id = ref (n + 1) in
  let spin () =
    let stop = Clock.now () +. (storm_ms /. 1e3) in
    while Clock.now () < stop do
      ignore (Sys.opaque_identity ())
    done
  in
  (* Warm the pool (domain spawn is ms-scale) so startup doesn't land
     on the first measured queries. *)
  ignore
    (Svc.Future.await
       (Svc.Executor.submit_task pool ~lane:Lane.Interactive ~name:"warmup"
          (fun () -> ()))
      : unit Svc.Response.t);
  let latencies = ref [] in
  for _round = 1 to rounds do
    for _ = 1 to upr do
      let e = mk_elem rng !next_id in
      incr next_id;
      Ing.insert t e
    done;
    for _ = 1 to storm do
      ignore
        (Svc.Executor.submit_task pool ~name:"storm" spin
          : unit Svc.Response.t Svc.Future.t)
    done;
    ignore
      (Svc.Executor.submit_task pool ~lane:Lane.Maintenance ~name:"beat"
         (fun () -> ())
        : unit Svc.Response.t Svc.Future.t);
    for _ = 1 to qpr do
      let q = qpool.(zipf ()) in
      let fut =
        Svc.Executor.submit_task pool ~lane:Lane.Interactive ~name:"query"
          (fun () -> ignore (Ing.query t q ~k:10 : I.t list))
      in
      let r = Svc.Future.await fut in
      latencies := r.Svc.Response.latency :: !latencies
    done
  done;
  Ing.freeze t;
  Svc.Executor.drain pool;
  let merges = Metrics.Counter.get m.Metrics.merges in
  let maint_wait =
    Metrics.Histogram.max_value
      m.Metrics.lane_wait_rounds.(Lane.index Lane.Maintenance)
  in
  Svc.Executor.shutdown pool;
  ( percentile 0.99 !latencies *. 1e3,
    percentile 0.50 !latencies *. 1e3,
    merges,
    maint_wait )

let run () =
  Table.section
    "E21: QoS lanes (interactive p99 vs background pressure, isolated vs \
     single queue)";
  let rounds = if !Workloads.quick then 8 else 20 in
  let qpr = 10 in
  let n = if !Workloads.quick then 1500 else 3000 in

  (* Interactive p99 vs merge rate: the batch work is the real level
     merges forced by the update stream, nothing synthetic. *)
  let rows = ref [] in
  List.iter
    (fun upr ->
      let seed = 210_000 + upr in
      let p99u, p50u, merges, _ =
        Topk_em.Config.with_model Workloads.em_model (fun () ->
            run_pass ~unified:true ~n ~rounds ~qpr ~upr ~storm:0 ~storm_ms:0.
              ~seed)
      in
      let p99l, p50l, _, maint_wait =
        Topk_em.Config.with_model Workloads.em_model (fun () ->
            run_pass ~unified:false ~n ~rounds ~qpr ~upr ~storm:0 ~storm_ms:0.
              ~seed)
      in
      rows :=
        [ Table.fi upr;
          Table.fi merges;
          Table.ff ~d:2 p50u;
          Table.ff ~d:2 p99u;
          Table.ff ~d:2 p50l;
          Table.ff ~d:2 p99l;
          Table.fx ~d:2 (p99u /. Float.max 1e-9 p99l);
          Table.fi maint_wait ]
        :: !rows)
    [ 0; 80; 160; 320; 640 ];
  Table.print
    ~title:
      (Printf.sprintf
         "Interactive latency vs merge rate (n = %d, %d rounds x %d \
          queries, k = 10, batch work = real merges)"
         n rounds qpr)
    ~header:
      [ "upd/round"; "merges"; "uni p50"; "uni p99"; "iso p50"; "iso p99";
        "p99 gain"; "maint wait" ]
    (List.rev !rows);
  Table.note
    "Claim: as the merge rate grows the unified tail inflates (a query \
     can queue behind every merge ahead of it) while isolation holds it \
     near the single-merge floor — modestly here, because level merges \
     at this scale run a few ms each and neither policy preempts the \
     one already on the worker.  The growing p50 is query cost (more \
     runs to consult), not queueing.  E21b is the regime where batch \
     work dominates.";

  (* Interactive p99 vs storm intensity at a fixed merge rate: the
     batch lane is flooded with synthetic 3ms busy tasks. *)
  let upr = 160 in
  let rows = ref [] in
  List.iter
    (fun storm ->
      let seed = 211_000 + storm in
      let p99u, p50u, _, _ =
        Topk_em.Config.with_model Workloads.em_model (fun () ->
            run_pass ~unified:true ~n ~rounds ~qpr ~upr ~storm ~storm_ms:3.0
              ~seed)
      in
      let p99l, p50l, _, maint_wait =
        Topk_em.Config.with_model Workloads.em_model (fun () ->
            run_pass ~unified:false ~n ~rounds ~qpr ~upr ~storm ~storm_ms:3.0
              ~seed)
      in
      rows :=
        [ Table.fi storm;
          Table.ff ~d:2 p50u;
          Table.ff ~d:2 p99u;
          Table.ff ~d:2 p50l;
          Table.ff ~d:2 p99l;
          Table.fx ~d:2 (p99u /. Float.max 1e-9 p99l);
          Table.fi maint_wait ]
        :: !rows)
    [ 0; 2; 4; 8; 16 ];
  Table.print
    ~title:
      (Printf.sprintf
         "E21b: interactive latency vs batch storm (n = %d, %d updates \
          per round, storm = 3ms busy tasks per round)"
         n upr)
    ~header:
      [ "storm"; "uni p50"; "uni p99"; "iso p50"; "iso p99"; "p99 gain";
        "maint wait" ]
    (List.rev !rows);
  Table.note
    "Claim: the unified p99 tracks the storm intensity while the \
     isolated p99 barely moves, and the maintenance heartbeat still \
     runs within aging_rounds + lane count dispatch decisions."
