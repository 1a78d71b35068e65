(** The unified query facade.

    One typed entry point — {!query} — in front of every way this
    system can answer a top-k query: a structure on the calling
    domain, an {!Executor} pool, a sharded scatter/gather, or a
    replicated group.  The caller states {e what} it wants (the query,
    [k], {!Limits.t} service constraints, a
    {!Topk_cache.Consistency.t} recency level) and the facade decides
    {e how}: consult the answer cache first, dispatch on a miss, admit
    the completed answer back.

    {b Caching.}  The client owns one {!Topk_cache.Cache} shared by
    all attached handles, keyed by [(instance name, canonical query
    key)] and version-tagged (see {!Topk_cache.Version}).  A hit is
    served with {e zero} charged I/O under a [cache.hit] root span; a
    miss dispatches normally and the completed response is offered
    back from whichever domain filled the future
    ({!Future.on_fill}).  Admission is cost-aware (answers cheaper
    than the cache's [min_cost] threshold are bypassed) and guarded
    against in-flight version movement, and entries admitted before a
    failover can never serve after it (the version's term component
    fences them).  Under the default {!Topk_cache.Consistency.Any}
    level the cache only serves entries at exactly the live version,
    so enabling it never changes any answer.

    Error handling is uniform: refusals that the executor surfaces as
    {!Error.Error} exceptions (breaker open, shutdown) come back from
    {!query} as [Failed] responses, so callers handle one shape. *)

type t

val create :
  ?cache:bool ->
  ?cache_stripes:int ->
  ?cache_capacity:int ->
  ?cache_min_cost:int ->
  ?metrics:Metrics.t ->
  unit ->
  t
(** [cache:false] disables the answer cache entirely (every query
    dispatches).  The [cache_*] parameters are passed through to
    {!Topk_cache.Cache.create}.  [metrics] receives the cache
    counters ([cache_hits] / [cache_misses] / [cache_evictions] /
    [cache_bypasses]) and the hit-age histogram; pass the pool's
    metrics to see serving and caching in one report.  A fresh
    registry is created otherwise. *)

val metrics : t -> Metrics.t

val cache_stats : t -> Topk_cache.Cache.stats option
(** [None] when caching is disabled. *)

(** Where a handle's queries are answered. *)
type ('q, 'e) source

val direct : ('q, 'e) Registry.handle -> ('q, 'e) source
(** Run on the calling domain (with the same staged budget/deadline
    cutoff, tracing, certification and transient-fault retries a pool
    worker would apply). *)

val pooled : Executor.t -> ('q, 'e) Registry.handle -> ('q, 'e) source
(** Submit to a worker pool with backpressure. *)

val endpoint :
  name:string ->
  (?limits:Limits.t ->
  ?consistency:Topk_cache.Consistency.t ->
  'q ->
  k:int ->
  'e Response.t) ->
  ('q, 'e) source
(** An external answering path — a sharded [Scatter.query] or a
    replicated [Group.read] — wrapped as a synchronous closure.  The
    closure interprets [consistency] itself (e.g. by routing to a
    sufficiently-caught-up replica). *)

type ('q, 'e) handle

val attach :
  t ->
  ?version:(unit -> Topk_cache.Version.t) ->
  ?qkey:('q -> string) ->
  ('q, 'e) source ->
  ('q, 'e) handle
(** Bind a source to this client.  [version] samples the instance's
    live {!Topk_cache.Version.t} — its latest applied op sequence and
    failover term (ingest-backed: [term 0, seq = last_seq];
    replicated: the group's term and head).  Without it the instance
    is treated as static (version [t0.s0]) and responses carry no seq
    token.  [qkey] canonicalizes queries into cache keys; the default
    marshals the query's runtime representation, which is faithful
    for the plain-data query types of every built-in problem family —
    supply [qkey] explicitly if your query type contains functions.
    Handles attached to one client must have distinct instance
    names. *)

val name : ('q, 'e) handle -> string

val query :
  ?limits:Limits.t ->
  ?consistency:Topk_cache.Consistency.t ->
  ('q, 'e) handle ->
  'q ->
  k:int ->
  'e Response.t Future.t
(** Answer [q] at result size [k].

    The fast path: if the cache holds an entry for this (instance,
    query) whose version the [consistency] level admits against the
    handle's current version and which covers rank [k] (an entry
    cached at a larger k serves any smaller k — prefix serving), it
    is returned immediately with zero charged I/O and the entry's
    sequence as its [seq_token].

    Otherwise the query dispatches through the handle's source.  On
    direct and pooled sources the consistency level is checked
    against the live snapshot first ([At_least s] needs the live seq
    at or above [s]; [Pinned p] needs it exactly [p]); an
    unsatisfiable level yields [Failed Shed].  Budgeted queries
    bypass the cache in both directions (a cutoff prefix is not a
    complete answer, and serving a cached complete answer would
    differ from the cutoff the budget would have produced).

    A deadline that has already passed yields [Failed Deadline]
    without executing anything.

    @raise Invalid_argument if [k <= 0], the limits carry a negative
    budget, or the consistency token is negative. *)

val query_sync :
  ?limits:Limits.t ->
  ?consistency:Topk_cache.Consistency.t ->
  ('q, 'e) handle ->
  'q ->
  k:int ->
  'e Response.t
(** [Future.await] of {!query}. *)

val invalidate : ('q, 'e) handle -> 'q -> bool
(** Drop the cached entry for one query, if present.  Version tagging
    makes this unnecessary for correctness; exposed for tests and
    manual flushes. *)
