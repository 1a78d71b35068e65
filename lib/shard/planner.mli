(** Scatter-gather top-k with max-query shard pruning — sequential
    form.

    For a query [(q, k)] the planner first runs one cheap max query per
    shard ([Q_max] I/Os each), obtaining the {e exact} upper bound on
    any matching weight per shard.  It then visits shards in decreasing
    upper-bound order, maintaining the best [k] candidates found so
    far, and {e skips} every shard whose upper bound is below the
    current k-th candidate weight.  Because the bound is exact and the
    partition disjoint, a skipped shard provably contributes nothing:
    answers are identical to a single structure over the whole input.

    On weight-skewed partitions (e.g. {!Partitioner.Range} keyed by
    weight) almost every shard is pruned and the query costs
    [S . Q_max + Q_top(n/S) + O(k/B)] instead of [S] full top-k
    queries; on uniform partitions the planner degrades gracefully to
    visiting all shards.  Either way the per-shard work is charged to
    {!Topk_em.Stats} by the underlying structures. *)

module Make (SS : Shard_set.S) : sig
  type report = {
    max_queries : int;  (** per-shard upper-bound probes issued *)
    visited : int;      (** shards whose TOPK structure was queried *)
    pruned : int;       (** shards skipped by the upper-bound test *)
    empty : int;        (** shards whose max query found no match *)
  }

  val prune_visit :
    SS.t ->
    SS.P.query ->
    k:int ->
    bounds_span:string ->
    prune_event:string ->
    wave:int ->
    visit:((int * float) list -> SS.P.elem list list) ->
    report
  (** The bounds-then-pruned-visit driver shared with {!Scatter}.  It
      takes one max query per shard under the span [bounds_span], then
      repeatedly drops (with one [prune_event] event) every remaining
      shard whose bound is below the k-th heaviest weight visited so
      far, and hands the next [wave] shards, as [(shard, bound)] in
      decreasing bound order, to [visit].  [visit] returns each
      shard's answers, decreasing; the caller keeps them for its own
      final gather.  The driver charges nothing beyond the max
      queries. *)

  val query : SS.t -> SS.P.query -> k:int -> SS.P.elem list
  (** Exact global top-k, sorted by decreasing weight; [[]] when
      [k <= 0]. *)

  val query_report : SS.t -> SS.P.query -> k:int -> SS.P.elem list * report
  (** Like {!query}, also reporting what the plan did. *)

  val query_all : SS.t -> SS.P.query -> k:int -> SS.P.elem list
  (** Pruning-free baseline: visit every shard and merge.  Same
      answers, used to measure what pruning saves. *)
end
