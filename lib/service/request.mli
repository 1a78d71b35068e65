(** Typed query descriptors.

    A request pairs a registered instance with a query, a result size
    [k], and a {!Limits.t} bundle of service constraints (I/O budget
    and deadline).  The element/query types are erased into
    closures so requests for heterogeneous instances travel through
    one queue; the matching typed {!Future.t} is returned to the
    submitter.

    Execution is {e attempt}-based for the supervision layer: a
    transient {!Topk_em.Fault.Em_fault} escaping the query leaves the
    future unresolved so the executor can retry the request with
    backoff, while any other exception (and normal completion) resolves
    the future immediately.

    When tracing is enabled ({!Topk_trace.Trace.enable}), each attempt
    runs under a root span on its worker domain — carrying the
    instance, [k], attempt number and worker index, plus a
    [sched.dispatch] child span recording the request's {!Lane.t} and
    its queue wait — and the resulting trace id travels back on the
    {!Response.t}.  A request submitted from inside another trace
    (e.g. a scattered shard leg) records that trace as its parent. *)

type spec = {
  instance : string;
  k : int;
  lane : Lane.t;            (** QoS lane the executor queues this on *)
  limits : Limits.t;        (** as given at {!prepare} *)
  submitted : float;        (** wall-clock submission time *)
}

(** What the executor needs to know for metrics, with types erased. *)
type outcome = {
  o_status : Response.status;
  o_ios : int;
  o_latency : float;
  o_verdict : bool option;
      (** certification result when the instance had a registered cost
          model: [Some true] = within bound, [Some false] = violation *)
}

(** Result of one execution attempt.  [Completed o] — the future has
    been resolved (with an answer or a permanent {!Response.Failed}).
    [Transient msg] — a retryable fault; the future is {e not}
    resolved, and the caller must either {!run} the request again or
    {!abort} it. *)
type attempt = Completed of outcome | Transient of string

type t

val spec : t -> spec

val attempts : t -> int
(** Number of execution attempts started so far (including the one in
    progress, once {!run} has been entered). *)

val prepare :
  ('q, 'e) Registry.handle ->
  ?lane:Lane.t ->
  ?limits:Limits.t ->
  'q ->
  k:int ->
  t * 'e Response.t Future.t
(** Build a request and the future its response will be delivered on.
    [lane] (default [Interactive]) selects the QoS lane the executor
    queues it on; fan-out layers pass the parent query's lane so every
    leg inherits its priority.

    This is serving-infrastructure plumbing: application code should
    go through {!Client.query} (or [Executor.submit]) instead of
    preparing requests by hand.
    @raise Invalid_argument if [k <= 0] or the limits carry a negative
    budget. *)

val make_task :
  name:string ->
  ?lane:Lane.t ->
  ?limits:Limits.t ->
  (unit -> unit) ->
  t * unit Response.t Future.t
(** Build a background job that travels the executor's scheduler like
    a query, on its own lane ([lane] defaults to [Batch]; durable
    scrub and GC pass [Maintenance]): retried on transient
    {!Topk_em.Fault.Em_fault}s, supervised across worker crashes,
    traced under a root span named ["task"], its EM cost charged to
    the worker domain that ran it.  Used by the ingestion layer for
    level merges.  The response carries no answers ([answers = []],
    [k = 0]); completion (or permanent failure) is signalled through
    the future's status. *)

val run : t -> worker:int -> attempt
(** Execute one attempt on the calling domain (normally a pool
    worker), incrementing {!attempts}.  A query exception becomes
    {!Response.Failed} ([Completed]) — except a transient
    {!Topk_em.Fault.Em_fault}, which is reported as [Transient] with
    the future left unresolved for a retry. *)

val abort : t -> worker:int -> reason:Error.t -> outcome
(** Resolve the future with [Failed reason] (no-op on the future if it
    is already resolved — resolution races are benign) and return the
    outcome for metrics.  Used when retries are exhausted and when
    {!Executor.shutdown} drops still-queued requests. *)
