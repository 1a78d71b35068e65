(** The worker pool: OCaml 5 [Domain]-based workers behind a
    multi-lane bounded MPMC scheduler ({!Sched}), under supervision.

    Index structures are immutable once built (the paper's structures
    are static or rebuilt wholesale), so a single snapshot is shared by
    every worker with no per-query synchronisation; the only contended
    state is the scheduler itself, and workers amortise that by popping
    requests in batches of up to [batch_max].  An idle worker polls for
    new work for {!Spin.bound} before it blocks; at most one worker
    polls at a time.

    {b QoS lanes.}  Every submission is tagged with a {!Lane.t}
    (queries default to [Interactive], tasks to [Batch]); each lane
    has its own bounded queue, backpressure, shed accounting and
    circuit breaker.  Workers dequeue lanes weighted-fair (8/2/1) with
    aging, and order the interactive lane by absolute deadline — see
    {!Sched} for the policy and its starvation-freedom bound.  Passing
    a [unified] {!Sched.config} collapses everything back into the one
    FIFO queue with a single shared breaker; [topk sched-bench] runs
    that as its baseline.

    {b Supervision and self-healing.}  The pool is built to degrade
    gracefully under the EM fault model ({!Topk_em.Fault}) instead of
    hanging callers:

    - Any exception escaping a job resolves that job's future as
      {!Response.Failed} — a broken handler can neither kill a worker
      domain nor leak the pending count (so {!drain} always returns).
    - A transient {!Topk_em.Fault.Em_fault} is retried with capped
      exponential backoff + jitter, up to [retry.max_retries] extra
      attempts; the request keeps its future and its attempt counter
      across retries.  Exhausted retries resolve the future as
      [Failed].
    - A supervisor domain respawns crashed worker domains into the
      same slot (per-worker EM accounting follows the slot, not the
      domain) and moves backed-off retries back onto the queue.
    - {!shutdown} resolves {e every} unserved future as
      [Failed "shutdown"] instead of dropping it.

    Admission control is per lane: {!submit} applies backpressure
    (blocks while the request's lane is at capacity — a full batch
    lane never blocks interactive submitters), {!try_submit} sheds
    load instead (returns [None] and counts a rejection), and a
    failure-rate-driven {!Breaker} {e per lane} in front of both
    rejects new work while that lane is persistently failing (closed →
    open → half-open) — so a wedged merge storm cannot trip admission
    for reads.  Per-query
    graceful degradation — budget and deadline cutoff with
    certified-prefix answers — is handled in {!Registry.exec} on the
    worker.

    Every worker charges the EM cost of the queries it runs to its own
    domain-local {!Topk_em.Stats} slot; {!worker_stats} and
    {!aggregate_stats} expose the per-worker and pooled totals. *)

type t

(** Retry policy for transient faults.  Attempt [a] (1-based) backs
    off [min max_backoff (base_backoff * 2^(a-1))] seconds, scaled by
    a uniform factor in [[1-jitter, 1+jitter]]. *)
type retry_policy = {
  max_retries : int;     (** extra attempts after the first (>= 0) *)
  base_backoff : float;  (** seconds *)
  max_backoff : float;   (** cap, seconds *)
  jitter : float;        (** in [[0,1]]; 0 = deterministic backoff *)
}

val default_retry_policy : retry_policy
(** 3 retries, 1ms base, 50ms cap, jitter 0.5. *)

val give_up :
  retry_policy -> Request.t -> worker:int -> string -> Request.outcome option
(** [give_up policy req ~worker msg], after [req]'s attempt failed with
    the transient fault [msg]: [None] while [policy] allows another
    attempt, otherwise [Some] of {!Request.abort} with a "transient
    fault persisted" reason.  The pool and a direct {!Client} source
    share this decision. *)

val create :
  ?workers:int ->
  ?queue_capacity:int ->
  ?batch_max:int ->
  ?retry:retry_policy ->
  ?breaker:Breaker.policy ->
  ?lanes:Sched.config ->
  ?seed:int ->
  unit ->
  t
(** Spawn the pool (workers + one supervisor domain).  Defaults:
    [max 1 (Domain.recommended_domain_count () - 1)] workers (one core
    left for the submitting thread), batches of up to 32,
    {!default_retry_policy}, and {!Sched.default_config} with every
    lane bounded at [queue_capacity] (default 1024).  [lanes]
    overrides the whole scheduler config (then [queue_capacity] is
    ignored); [breaker] sets the policy applied to {e each} lane's
    breaker; [seed] feeds the backoff jitter.
    @raise Invalid_argument on non-positive parameters or a malformed
    retry/breaker/lane policy. *)

val submit :
  t ->
  ('q, 'e) Registry.handle ->
  ?lane:Lane.t ->
  ?limits:Limits.t ->
  'q ->
  k:int ->
  'e Response.t Future.t
(** Enqueue a query; blocks while its lane is full ({e backpressure}).
    [lane] defaults to [Interactive]; fan-out layers pass the parent
    query's lane so shard legs inherit its priority.  [limits] bundles
    the I/O budget and deadline (default {!Limits.none});
    {!Topk_shard.Scatter} passes every per-shard leg of a logical
    query the same deadline.
    @raise Error.Error [(Failed "shutdown")] if the pool has been shut
    down, [Overloaded] if the lane's circuit breaker is open (that
    lane has been failing persistently; shed load and retry later).
    @raise Invalid_argument on a malformed request (see
    {!Request.prepare}). *)

val submit_task :
  t ->
  ?lane:Lane.t ->
  ?limits:Limits.t ->
  name:string ->
  (unit -> unit) ->
  unit Response.t Future.t
(** Enqueue a background job (see {!Request.make_task}) through the
    same scheduler as queries — on its own lane ([lane] defaults to
    [Batch]; durable scrub/GC pass [Maintenance]) so it shares the
    pool's retry, supervision and per-worker EM accounting without
    sitting in front of interactive work.  The ingestion layer uses
    this to run level merges.  Blocks while the lane is full.
    @raise Error.Error [(Failed "shutdown")] after shutdown,
    [Overloaded] while the lane's breaker is open. *)

val try_submit :
  t ->
  ('q, 'e) Registry.handle ->
  ?lane:Lane.t ->
  ?limits:Limits.t ->
  'q ->
  k:int ->
  'e Response.t Future.t option
(** Non-blocking admission: [None] when the lane is at capacity (a
    queue-full rejection is counted) or the lane's breaker is open (a
    breaker rejection is counted); both also count on the lane's shed
    counter.
    @raise Error.Error [(Failed "shutdown")] after shutdown. *)

val drain : t -> unit
(** Block until no request is queued, parked for retry, or in flight. *)

val shutdown : t -> unit
(** Stop accepting work and stop the pool: in-flight requests finish
    normally; every still-queued or backoff-parked request is resolved
    as [Failed "shutdown"] (so no {!Future.await} ever hangs); the
    supervisor and all workers are joined.  Idempotent.  Call {!drain}
    first for a graceful "finish the backlog, then stop". *)

val worker_count : t -> int

val queue_depth : t -> int
(** Requests queued across all lanes. *)

val lane_depth : t -> Lane.t -> int

val lanes : t -> Sched.config

val metrics : t -> Metrics.t

val resolve_metrics : ?metrics:Metrics.t -> t option -> Metrics.t option
(** The metrics a pool-aware layer records into: [metrics] when
    given, else the pool's {!metrics}, else [None].  {!Topk_ingest}
    and {!Topk_durable} resolve their [?metrics]/[?pool] pair through
    this one rule. *)

val breaker_state : t -> Breaker.state
(** The interactive lane's breaker (the one admission callers care
    about); see {!lane_breaker_state} for the others. *)

val lane_breaker_state : t -> Lane.t -> Breaker.state

val inject_worker_crash : t -> int -> unit
(** Chaos hook: make worker [idx]'s current domain terminate
    abnormally at its next queue interaction (it finishes the batch it
    is processing first, so no claimed request is lost).  The
    supervisor respawns the slot within a tick; the pool keeps
    serving.  Used by [topk chaos-bench] and the chaos tests.
    @raise Invalid_argument if [idx] is not a worker index. *)

val worker_stats : t -> (int * Topk_em.Stats.snapshot) list
(** Per-worker EM accounting: [(worker index, counters)] for each
    worker slot that has charged work, summed over every domain that
    ever occupied the slot (respawns included).  Exact once the pool
    is {!drain}ed (quiescent) or {!shutdown} (joined); a
    possibly-stale reading while queries are still running. *)

val aggregate_stats : t -> Topk_em.Stats.snapshot
(** Sum of {!worker_stats}. *)
