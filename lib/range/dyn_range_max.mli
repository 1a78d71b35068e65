(** Dynamic 1D range-max, the [U_max] black box for a dynamic top-k
    range structure: a {!Topk_core.Bentley_saxe.Buckets} instance, as
    is the dynamic stabbing-max of Theorem 4
    ({!Topk_interval.Dyn_max}).  The engine keeps the buckets, the
    tombstones, the re-insert rule and the global rebuild; each bucket
    here is a segment tree over the bucket's points whose canonical
    nodes are the engine's weight-descending arrays with a head pointer
    skipping tombstoned entries (each skip amortizes against one
    deletion). *)

include Topk_core.Sigs.DYNAMIC_MAX with module P = Problem

val live : t -> int

val rebuilds : t -> int
