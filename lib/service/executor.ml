module Clock = Topk_util.Clock
module Stats = Topk_em.Stats

(* --- retry policy --- *)

type retry_policy = {
  max_retries : int;
  base_backoff : float;
  max_backoff : float;
  jitter : float;
}

let default_retry_policy =
  { max_retries = 3; base_backoff = 0.001; max_backoff = 0.05; jitter = 0.5 }

let give_up policy req ~worker msg =
  let attempts = Request.attempts req in
  if attempts <= policy.max_retries then None
  else
    Some
      (Request.abort req ~worker
         ~reason:
           (Error.Failed
              (Printf.sprintf "transient fault persisted after %d attempts: %s"
                 attempts msg)))

(* --- worker slots ---

   One slot per worker index.  The domain occupying a slot changes over
   the pool's lifetime: a crashed worker is replaced by the supervisor,
   and [ids] accumulates the Domain.ids of every domain that ever
   served the slot, so per-worker EM accounting survives respawns. *)

type slot = {
  mutable dom : unit Domain.t option;  (* mutated by supervisor/shutdown only *)
  mutable ids : int list;              (* under [t.mutex] *)
  alive : bool Atomic.t;
  crashed : bool Atomic.t;  (* exited abnormally; supervisor will respawn *)
  kill : bool Atomic.t;     (* chaos hook: die at the next queue pop *)
}

type t = {
  mutex : Mutex.t;
  not_empty : Condition.t;  (* signalled on enqueue / kill / shutdown *)
  not_full : Condition.t;   (* signalled when queue space frees up *)
  idle : Condition.t;       (* signalled when the pool fully drains *)
  sched : Request.t Sched.t;  (* the multi-lane queue; under [mutex] *)
  queued : int Atomic.t;
      (* [Sched.length sched], written under [mutex]; read without it
         by the idle worker that spins *)
  spinning : bool Atomic.t;  (* an idle worker is spinning on [queued] *)
  mutable parked : (float * Request.t) list;  (* backoff: (ready_at, req) *)
  batch_max : int;
  retry : retry_policy;
  rand : Random.State.t;  (* backoff jitter; under [mutex] *)
  stopping : bool Atomic.t;  (* set once, under [mutex] *)
  mutable pending : int;  (* queued + parked + in-flight requests *)
  slots : slot array;
  mutable supervisor : unit Domain.t option;
  n_workers : int;
  metrics : Metrics.t;
  breakers : Breaker.t array;
      (* one per lane (Lane.index), so a wedged background job cannot
         trip admission for interactive reads; in unified mode every
         entry is the same breaker — the old single-queue cross-talk,
         kept as the sched-bench baseline *)
}

(* --- worker side --- *)

(* Raised (on purpose) by a worker whose [kill] flag is set: simulates
   a worker domain dying between jobs.  It escapes every guard so the
   domain really terminates; the supervisor respawns it. *)
exception Killed

let record_outcome metrics ~lane (o : Request.outcome) =
  let open Metrics in
  let li = Lane.index lane in
  Counter.incr metrics.completed;
  (match o.Request.o_status with
  | Response.Complete -> ()
  | Response.Cutoff_budget -> Counter.incr metrics.cutoff_budget
  | Response.Cutoff_deadline -> Counter.incr metrics.cutoff_deadline
  | Response.Failed _ -> Counter.incr metrics.failed);
  (match o.Request.o_verdict with
  | Some ok ->
      Counter.incr metrics.cert_checked;
      if not ok then Counter.incr metrics.cert_violations
  | None -> ());
  Histogram.observe metrics.latency_us
    (int_of_float (o.Request.o_latency *. 1e6));
  Histogram.observe metrics.lane_latency_us.(li)
    (int_of_float (o.Request.o_latency *. 1e6));
  Histogram.observe metrics.ios o.Request.o_ios;
  Counter.add metrics.lane_ios.(li) o.Request.o_ios

let finish_pending t =
  Mutex.protect t.mutex (fun () ->
      t.pending <- t.pending - 1;
      if t.pending = 0 then Condition.broadcast t.idle)

let lane_of job = (Request.spec job).Request.lane

(* A request reached its final resolution: metrics, the breaker of its
   own lane (so a failing merge storm cannot open the interactive
   breaker), pending. *)
let record_final t job (o : Request.outcome) =
  let lane = lane_of job in
  record_outcome t.metrics ~lane o;
  let ok =
    match o.Request.o_status with Response.Failed _ -> false | _ -> true
  in
  Breaker.record t.breakers.(Lane.index lane) ~now:(Clock.now ()) ~ok;
  finish_pending t

(* Capped exponential backoff with jitter: attempt [a] (1-based) waits
   [min max_backoff (base * 2^(a-1))], scaled by a uniform factor in
   [1-jitter, 1+jitter] so retried requests don't reconverge in
   lockstep on a struggling resource. *)
let backoff_delay t attempt =
  let p = t.retry in
  let d =
    Float.min p.max_backoff (p.base_backoff *. (2. ** float_of_int (attempt - 1)))
  in
  if p.jitter <= 0. then d
  else
    let r = Mutex.protect t.mutex (fun () -> Random.State.float t.rand 1.) in
    Float.max 0. (d *. (1. -. p.jitter +. (2. *. p.jitter *. r)))

(* Park a request for retry; if the pool is stopping, resolve it now. *)
let park t job delay =
  let decision =
    Mutex.protect t.mutex (fun () ->
        if Atomic.get t.stopping then `Abort
        else begin
          t.parked <- (Clock.now () +. delay, job) :: t.parked;
          `Parked
        end)
  in
  match decision with
  | `Parked -> ()
  | `Abort ->
      Metrics.Counter.incr t.metrics.aborted;
      record_final t job
        (Request.abort job ~worker:(-1) ~reason:(Error.Failed "shutdown"))

let process_job t idx job =
  Metrics.Gauge.decr t.metrics.queue_depth;
  Metrics.Gauge.decr t.metrics.lane_depth.(Lane.index (lane_of job));
  Metrics.Gauge.incr t.metrics.inflight;
  let res =
    (* Supervision guard: *nothing* a handler raises may kill the
       worker domain or leak [pending] — a broken query becomes a
       [Failed] response.  (Request.run already converts handler
       exceptions; this net also covers failures in the response path
       itself.) *)
    try Request.run job ~worker:idx
    with e ->
      Request.Completed
        (Request.abort job ~worker:idx
           ~reason:(Error.Failed ("uncaught: " ^ Printexc.to_string e)))
  in
  Metrics.Gauge.decr t.metrics.inflight;
  match res with
  | Request.Completed outcome -> record_final t job outcome
  | Request.Transient msg ->
      Metrics.Counter.incr t.metrics.faults_injected;
      (match give_up t.retry job ~worker:idx msg with
      | Some outcome -> record_final t job outcome
      | None ->
          Metrics.Counter.incr t.metrics.retries;
          park t job (backoff_delay t (Request.attempts job)))

(* An idle worker spins on [queued] for [Spin.bound] before it takes
   the mutex and parks on [not_empty]: a job submitted within the
   bound is picked up without a futex wake-up.  At most one worker
   spins at a time; the others park at once, as an idle pool should
   cost no more than one core. *)
let spin_for_work t slot =
  if Atomic.get t.queued = 0 && Atomic.compare_and_set t.spinning false true
  then begin
    ignore
      (Spin.until (fun () ->
           Atomic.get t.queued > 0 || Atomic.get slot.kill
           || Atomic.get t.stopping)
        : bool);
    Atomic.set t.spinning false
  end

let pop_batch t idx =
  let slot = t.slots.(idx) in
  spin_for_work t slot;
  Mutex.protect t.mutex (fun () ->
      while
        Sched.is_empty t.sched
        && (not (Atomic.get t.stopping))
        && not (Atomic.get slot.kill)
      do
        Condition.wait t.not_empty t.mutex
      done;
      if Atomic.get slot.kill then raise Killed;
      if Atomic.get t.stopping then []
        (* New backlog is not served once stopping: the shutdown sweep
           resolves whatever is still queued as [Failed "shutdown"]. *)
      else
        match Sched.pop_batch t.sched ~max:t.batch_max with
        | None -> assert false (* the wait loop held the mutex: non-empty *)
        | Some (_, popped) ->
            ignore (Atomic.fetch_and_add t.queued (-List.length popped) : int);
            List.iter
              (fun (job, waited) ->
                Metrics.Histogram.observe
                  t.metrics.lane_wait_rounds.(Lane.index (lane_of job))
                  waited)
              popped;
            Condition.broadcast t.not_full;
            List.map fst popped)

let rec worker_loop t idx =
  match pop_batch t idx with
  | [] -> ()  (* stopping: exit cleanly *)
  | jobs ->
      Metrics.Histogram.observe t.metrics.batch (List.length jobs);
      List.iter (process_job t idx) jobs;
      worker_loop t idx

let worker_main t idx =
  let slot = t.slots.(idx) in
  Mutex.protect t.mutex (fun () ->
      slot.ids <- (Domain.self () :> int) :: slot.ids);
  match worker_loop t idx with
  | () ->
      (* Clean exit (pool stopping). *)
      Atomic.set slot.alive false
  | exception _ ->
      (* Abnormal exit — [Killed] or a defect in the loop itself.
         Publish the crash; the supervisor joins this domain and
         spawns a replacement into the same slot. *)
      Atomic.set slot.crashed true;
      Atomic.set slot.alive false

(* --- supervisor ---

   A dedicated domain that (a) moves parked retries whose backoff has
   elapsed back onto the queue and (b) respawns crashed workers.  It
   polls at sub-millisecond cadence; both duties are rare, so the cost
   is one mutex acquisition per tick. *)

let supervisor_tick t =
  let due =
    Mutex.protect t.mutex (fun () ->
        if t.parked = [] then 0
        else begin
          let ts = Clock.now () in
          let due, later =
            List.partition (fun (ready, _) -> ready <= ts) t.parked
          in
          t.parked <- later;
          List.iter
            (fun (_, job) ->
              (* Retries bypass the capacity check: they already hold a
                 pending slot, and blocking the supervisor on a full
                 lane would stall respawns. *)
              Sched.push t.sched (lane_of job) job;
              Atomic.incr t.queued;
              Metrics.Gauge.incr t.metrics.queue_depth;
              Metrics.Gauge.incr
                t.metrics.lane_depth.(Lane.index (lane_of job));
              Condition.signal t.not_empty)
            due;
          List.length due
        end)
  in
  ignore (due : int);
  Array.iteri
    (fun idx slot ->
      if Atomic.get slot.crashed && not (Atomic.get slot.alive) then begin
        (match slot.dom with Some d -> Domain.join d | None -> ());
        Atomic.set slot.crashed false;
        Atomic.set slot.kill false;
        Atomic.set slot.alive true;
        Metrics.Counter.incr t.metrics.respawns;
        slot.dom <- Some (Domain.spawn (fun () -> worker_main t idx))
      end)
    t.slots

let supervisor_loop t =
  let rec loop () =
    if Atomic.get t.stopping then ()
    else begin
      supervisor_tick t;
      Unix.sleepf 5e-4;
      loop ()
    end
  in
  loop ()

(* --- pool management --- *)

let create ?workers ?(queue_capacity = 1024) ?(batch_max = 32)
    ?(retry = default_retry_policy) ?breaker ?lanes ?(seed = 0x5EED) () =
  let n_workers =
    match workers with
    | Some w -> w
    | None -> max 1 (Domain.recommended_domain_count () - 1)
  in
  if n_workers < 1 then invalid_arg "Executor.create: workers must be >= 1";
  if queue_capacity < 1 then
    invalid_arg "Executor.create: queue_capacity must be >= 1";
  if batch_max < 1 then invalid_arg "Executor.create: batch_max must be >= 1";
  if retry.max_retries < 0 then
    invalid_arg "Executor.create: max_retries must be >= 0";
  if not (retry.base_backoff >= 0. && retry.max_backoff >= 0.) then
    invalid_arg "Executor.create: backoff must be >= 0";
  if not (retry.jitter >= 0. && retry.jitter <= 1.) then
    invalid_arg "Executor.create: jitter must be in [0,1]";
  let lane_cfg =
    match lanes with
    | Some cfg ->
        Sched.validate cfg;
        cfg
    | None -> Sched.default_config ~capacity:queue_capacity ()
  in
  let metrics = Metrics.create () in
  let mk_breaker lane =
    Breaker.create ?policy:breaker
      ~on_transition:(fun st ->
        let code = Breaker.state_code st in
        Metrics.Gauge.set
          metrics.Metrics.lane_breaker_state.(Lane.index lane) code;
        (* The legacy gauge tracks the interactive lane — the one
           admission callers care about. *)
        if lane = Lane.Interactive then
          Metrics.Gauge.set metrics.Metrics.breaker_state code;
        if st = Breaker.Open then
          Metrics.Counter.incr metrics.Metrics.breaker_opens)
      ()
  in
  let breakers =
    if lane_cfg.Sched.unified then
      (* One shared breaker: background failures count toward query
         admission, exactly the cross-talk the lanes exist to remove. *)
      Array.make Lane.count (mk_breaker Lane.Interactive)
    else Array.init Lane.count (fun i -> mk_breaker (Lane.of_index i))
  in
  let sched =
    Sched.create lane_cfg ~deadline:(fun job ->
        (Request.spec job).Request.limits.Limits.deadline)
  in
  let t =
    {
      mutex = Mutex.create ();
      not_empty = Condition.create ();
      not_full = Condition.create ();
      idle = Condition.create ();
      sched;
      queued = Atomic.make 0;
      spinning = Atomic.make false;
      parked = [];
      batch_max;
      retry;
      rand = Random.State.make [| seed |];
      stopping = Atomic.make false;
      pending = 0;
      slots =
        Array.init n_workers (fun _ ->
            {
              dom = None;
              ids = [];
              alive = Atomic.make true;
              crashed = Atomic.make false;
              kill = Atomic.make false;
            });
      supervisor = None;
      n_workers;
      metrics;
      breakers;
    }
  in
  Array.iteri
    (fun i slot -> slot.dom <- Some (Domain.spawn (fun () -> worker_main t i)))
    t.slots;
  t.supervisor <- Some (Domain.spawn (fun () -> supervisor_loop t));
  t

let worker_count t = t.n_workers

let metrics t = t.metrics

let resolve_metrics ?metrics:m pool =
  match m with Some _ -> m | None -> Option.map metrics pool

let breaker_state t = Breaker.state t.breakers.(Lane.index Lane.Interactive)

let lane_breaker_state t lane = Breaker.state t.breakers.(Lane.index lane)

let queue_depth t = Mutex.protect t.mutex (fun () -> Sched.length t.sched)

let lane_depth t lane =
  Mutex.protect t.mutex (fun () -> Sched.lane_depth t.sched lane)

let lanes t = Sched.config t.sched

(* --- chaos hook --- *)

let inject_worker_crash t idx =
  if idx < 0 || idx >= t.n_workers then
    invalid_arg
      (Printf.sprintf "Executor.inject_worker_crash: no worker %d" idx);
  Atomic.set t.slots.(idx).kill true;
  Mutex.protect t.mutex (fun () -> Condition.broadcast t.not_empty)

(* --- submission --- *)

let shut_down () = Error.fail (Error.Failed "shutdown")

(* The lane's breaker verdict; a refusal is counted as shed. *)
let admit t lane =
  let ok = Breaker.admit t.breakers.(Lane.index lane) ~now:(Clock.now ()) in
  if not ok then begin
    Metrics.Counter.incr t.metrics.breaker_rejected;
    Metrics.Counter.incr t.metrics.lane_shed.(Lane.index lane)
  end;
  ok

let accept_locked t lane req =
  Sched.push t.sched lane req;
  Atomic.incr t.queued;
  t.pending <- t.pending + 1;
  Metrics.Gauge.incr t.metrics.queue_depth;
  Metrics.Gauge.incr t.metrics.lane_depth.(Lane.index lane);
  Metrics.Counter.incr t.metrics.submitted;
  Metrics.Counter.incr t.metrics.lane_admitted.(Lane.index lane);
  Condition.signal t.not_empty

let enqueue_blocking t req =
  let lane = lane_of req in
  Mutex.protect t.mutex (fun () ->
      if Atomic.get t.stopping then shut_down ();
      if not (admit t lane) then Error.fail Error.Overloaded;
      (* Backpressure is per lane: a full batch lane blocks only batch
         producers; interactive submissions keep flowing. *)
      while
        (not (Sched.has_room t.sched lane)) && not (Atomic.get t.stopping)
      do
        Condition.wait t.not_full t.mutex
      done;
      if Atomic.get t.stopping then shut_down ();
      accept_locked t lane req)

let enqueue_nonblocking t req =
  let lane = lane_of req in
  let accepted =
    Mutex.protect t.mutex (fun () ->
        if Atomic.get t.stopping then shut_down ();
        if not (admit t lane) then `Breaker
        else if not (Sched.has_room t.sched lane) then `Full
        else begin
          accept_locked t lane req;
          `Accepted
        end)
  in
  match accepted with
  | `Accepted -> true
  | `Full ->
      Metrics.Counter.incr t.metrics.rejected;
      Metrics.Counter.incr t.metrics.lane_shed.(Lane.index lane);
      false
  | `Breaker -> false

let submit t handle ?lane ?limits q ~k =
  let req, fut = Request.prepare handle ?lane ?limits q ~k in
  enqueue_blocking t req;
  fut

let submit_task t ?lane ?limits ~name f =
  let req, fut = Request.make_task ~name ?lane ?limits f in
  enqueue_blocking t req;
  fut

let try_submit t handle ?lane ?limits q ~k =
  let req, fut = Request.prepare handle ?lane ?limits q ~k in
  if enqueue_nonblocking t req then Some fut else None

(* --- lifecycle --- *)

let drain t =
  Mutex.protect t.mutex (fun () ->
      while t.pending > 0 do
        Condition.wait t.idle t.mutex
      done)

let shutdown t =
  let sup =
    Mutex.protect t.mutex (fun () ->
        Atomic.set t.stopping true;
        Condition.broadcast t.not_empty;
        Condition.broadcast t.not_full;
        let s = t.supervisor in
        t.supervisor <- None;
        s)
  in
  (* Join the supervisor first so no respawn or un-parking races the
     sweep below. *)
  Option.iter Domain.join sup;
  (* Resolve every request that will never run: still-queued and
     parked futures become [Failed "shutdown"] instead of hanging
     their callers.  In-flight requests finish normally. *)
  let queued, parked =
    Mutex.protect t.mutex (fun () ->
        let queued = Sched.drain_all t.sched in
        Atomic.set t.queued 0;
        let parked = List.map snd t.parked in
        t.parked <- [];
        let dropped = List.length queued + List.length parked in
        t.pending <- t.pending - dropped;
        if t.pending = 0 then Condition.broadcast t.idle;
        Condition.broadcast t.not_empty;
        (queued, parked))
  in
  let abort_job from_queue job =
    if from_queue then begin
      Metrics.Gauge.decr t.metrics.queue_depth;
      Metrics.Gauge.decr t.metrics.lane_depth.(Lane.index (lane_of job))
    end;
    Metrics.Counter.incr t.metrics.aborted;
    let o =
      Request.abort job ~worker:(-1) ~reason:(Error.Failed "shutdown")
    in
    record_outcome t.metrics ~lane:(lane_of job) o
  in
  List.iter (abort_job true) queued;
  List.iter (abort_job false) parked;
  (* Join the workers (they exit after finishing in-flight work). *)
  Array.iter
    (fun slot ->
      match slot.dom with
      | Some d ->
          Domain.join d;
          slot.dom <- None
      | None -> ())
    t.slots

(* --- per-worker EM accounting --- *)

let worker_stats t =
  let slot_ids =
    Mutex.protect t.mutex (fun () -> Array.map (fun s -> s.ids) t.slots)
  in
  let per_slot = Array.make t.n_workers Stats.zero_snapshot in
  let seen = Array.make t.n_workers false in
  List.iter
    (fun (d, s) ->
      Array.iteri
        (fun idx ids ->
          if List.mem d ids then begin
            per_slot.(idx) <- Stats.add per_slot.(idx) s;
            seen.(idx) <- true
          end)
        slot_ids)
    (Stats.per_domain ());
  List.filteri
    (fun idx _ -> seen.(idx))
    (List.mapi (fun idx s -> (idx, s)) (Array.to_list per_slot))

let aggregate_stats t =
  List.fold_left
    (fun acc (_, s) -> Stats.add acc s)
    Stats.zero_snapshot (worker_stats t)
