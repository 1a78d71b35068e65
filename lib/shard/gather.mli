(** Bounded k-way merge of per-shard answers.

    Each shard answers a top-k query with its [<= k] heaviest matching
    elements in decreasing weight order; the global answer is the [k]
    heaviest of their union.  Because the inputs are sorted, a heap of
    one cursor per shard produces the merged prefix in
    [O(k log S + k/B)] — the [O(k/B)] merge cost the paper's reductions
    promise, charged to {!Topk_em.Stats} like any other reporting
    work.

    Under budget/deadline cutoff a shard may return a {e certified
    prefix} (its exact heaviest [m < k] elements) instead of a full
    answer; {!merge_certified} propagates that certification to the
    merged result instead of silently mixing exact and truncated
    data. *)

val merge : cmp:('e -> 'e -> int) -> k:int -> 'e list list -> 'e list
(** [merge ~cmp ~k lists] is the [k] largest elements (under [cmp],
    largest first) of the union of [lists], each of which must already
    be sorted in decreasing [cmp] order.  Returns fewer than [k]
    elements iff the union has fewer.  [k <= 0] yields [[]].  Charges
    one scanned element per input consumed. *)

val merge_certified :
  cmp:('e -> 'e -> int) ->
  weight:('e -> float) ->
  k:int ->
  ('e list * bool) list ->
  'e list * bool
(** [merge_certified ~cmp ~weight ~k answers] merges per-shard answers
    tagged with a completeness flag: [(l, true)] is a shard's exact,
    complete top-k; [(l, false)] is a certified prefix — the shard's
    exact heaviest [length l] elements, with every unreported element
    of that shard strictly lighter than the last element of [l] (and a
    [([], false)] shard certifies nothing).

    Returns [(prefix, complete)]: the longest merged prefix that is
    provably the global top-|prefix| given the certifications, and
    whether it is the full (up to [k]) answer.  When every input is
    complete this is exactly [merge] with [complete = true]. *)
