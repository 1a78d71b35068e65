(** Parallel scatter-gather: one logical top-k query fanned out over a
    {!Shard_set} through a {!Topk_service.Executor} worker pool.

    {!Planner} is the sequential reference: it visits shards one at a
    time in decreasing upper-bound order, so it can prune after every
    shard.  Scatter trades a little pruning opportunity for
    parallelism using {e waves}: after the caller-side max-query phase
    ranks shards by their exact upper bounds, the top [wave] live
    shards ([wave] is the pool's worker count) are submitted to the
    pool as independent per-shard jobs (all racing one shared
    deadline), their responses are gathered, and the {e remaining}
    shards are re-pruned against the k-th best candidate found so far
    before the next wave.  Every
    worker stays busy; on a one-worker pool this degenerates to the
    planner's fully-adaptive order.

    Answers are exact (the same argument as the planner's: disjoint
    shards + exact per-shard maxima + pairwise-distinct weights), and
    under budget/deadline cutoff the gathered answer is a certified
    prefix combined by {!Gather.merge_certified} — truncated legs
    never silently pollute the merged result.

    Cost accounting matches the acceptance contract of the serving
    layer: each per-shard leg's EM cost is charged to (and bracketed
    on) the worker domain that ran it, the caller-side work (max
    queries, merges) is bracketed on the calling domain, and
    {!result.cost} is their sum — so summing [result.cost] over a
    quiescent run reproduces {!Topk_em.Stats.aggregate} exactly.

    Shard fan-out telemetry lands in the pool's {!Topk_service.Metrics}:
    [sharded_queries], [shards_pruned], and the [fanout] /
    [shard_latency_us] / [shard_ios] histograms. *)

module Make
    (SS : Shard_set.S)
    (T : Topk_core.Sigs.TOPK with module P = SS.P and type t = SS.topk) : sig
  type t

  (** The joined answer of one logical query. *)
  type result = {
    answers : SS.P.elem list;
        (** decreasing weight; exact top-k, or a certified prefix of
            it when [status] is a cutoff *)
    status : Topk_service.Response.status;
        (** worst per-shard leg status — upgraded back to [Complete]
            when the certified merge proves the full top-k anyway *)
    cost : Topk_em.Stats.snapshot;
        (** caller-side cost (max queries + merges) plus the sum of
            every leg's cost *)
    latency : float;  (** submit-to-answer seconds, on {!Topk_util.Clock} *)
    fanout : int;  (** per-shard jobs actually submitted *)
    pruned : int;  (** shards skipped by the max-query upper bound *)
    empty : int;   (** shards with no matching element at all *)
  }

  val create :
    Topk_service.Executor.t ->
    Topk_service.Registry.t ->
    name:string ->
    SS.t ->
    t
  (** Register every shard of the snapshot in [registry] as
      ["name#i"] and return the fan-out front-end.
      @raise Invalid_argument on a duplicate name. *)

  val query :
    t ->
    ?lane:Topk_service.Lane.t ->
    ?limits:Topk_service.Limits.t ->
    SS.P.query ->
    k:int ->
    result
  (** Scatter, gather, and join one logical query (blocks the caller
      until every submitted leg resolves).  [lane] (default
      [Interactive]) is inherited by every submitted per-shard leg, so
      fanning out never changes the priority of the work.
      [limits.budget] is a per-leg EM-I/O budget; [limits.deadline]
      is {e one} shared deadline raced by every leg, so a late wave
      inherits the time its predecessors spent.

      When tracing is enabled, the whole logical query runs under a
      ["scatter"] root span (bounds phase, prune events, one
      ["scatter.leg"] span per gathered leg linking to the worker-side
      trace) whose [visited]/[pruned]/[empty] attributes feed the
      sharded cost certifier.
      @raise Invalid_argument if [k <= 0] or the limits carry a
      negative budget.
      @raise Topk_service.Error.Error if the pool is shut down. *)
end
