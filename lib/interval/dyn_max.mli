(** Dynamic stabbing-max — the [U_max] black box of Theorem 4's first
    bullet (substituting for Agarwal et al. [7]).

    A {!Topk_core.Bentley_saxe.Buckets} instance: the engine keeps the
    logarithmic-method buckets, the tombstones, the re-insert rule and
    the global rebuild; each bucket here is a segment tree over its own
    endpoint slabs whose canonical nodes are the engine's
    weight-descending arrays with a {e head} pointer.  A query walks
    each bucket's leaf-to-root path and advances heads past tombstoned
    prefixes (each element is skipped at most once per node, so the
    cost amortizes against the deletion).  Queries are [O(log^2 n)]
    over the buckets; insertions amortize to [O(log^2 n)]; deletions
    to [O(log n)]. *)

include Topk_core.Sigs.DYNAMIC_MAX with module P = Problem

val live : t -> int

val rebuilds : t -> int
