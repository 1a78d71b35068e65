(** Splitting an element set into [S] disjoint shards.

    The paper's reductions are black boxes per structure, so a
    collection of independently built TOPK instances over disjoint
    partitions is itself a valid top-k index: the per-shard answers are
    exact, and {!Gather.merge} recombines them in [O(k/B)] amortized.
    This module only decides {e which} shard each element lands in; it
    never inspects weights or queries beyond the key functions given.

    All strategies are deterministic: the same inputs produce the same
    partition, so sharded experiments are reproducible from a seed the
    same way single-structure ones are. *)

type 'a strategy =
  | Hash of ('a -> int)
      (** Bucket by a mixed hash of the given integer key (typically
          [P.id]).  Shard sizes concentrate around [n/S]; shard weight
          profiles are statistically identical — the layout that makes
          max-query pruning hardest and load balance easiest. *)
  | Range of ('a -> float)
      (** Sort by the given key and cut into [S] contiguous chunks of
          near-equal size.  Keying by a spatial coordinate gives
          locality; keying by weight gives maximal skew across shard
          maxima — the layout where pruning shines. *)
  | Balanced
      (** Deal elements round-robin in input order: shard sizes differ
          by at most one, no key required. *)

val split : strategy:'a strategy -> shards:int -> 'a array -> 'a array array
(** [split ~strategy ~shards elems] partitions [elems] into exactly
    [shards] disjoint arrays whose concatenation is a permutation of
    [elems].

    @raise Invalid_argument if [shards < 1], or if [shards] exceeds
    [max 1 (Array.length elems)] (more shards than elements cannot all
    be non-empty; [Range] and [Balanced] guarantee non-emptiness, and
    we hold [Hash] to the same contract at the boundary). *)

val sizes : 'a array array -> int array
(** Per-shard element counts. *)
