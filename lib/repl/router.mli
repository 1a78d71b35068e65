(** Staleness-bounded read routing.

    The router picks which node answers a read: round-robin over the
    replicas that satisfy the read's {!Topk_cache.Consistency.t}
    level, with the primary as fallback — a primary read is never
    stale, so demanding freshness degrades throughput (everything
    lands on the primary) rather than correctness.

    [At_least s] is the read-your-writes token (callers pass back the
    {!Topk_service.Response.seq_token} of an earlier response),
    [Max_lag l] bounds how far behind the primary's head the node may
    be, [Pinned p] demands a node whose applied prefix is exactly
    [p]. *)

type candidate = {
  c_id : int;
  c_applied : int;  (** the node's contiguously applied prefix *)
  c_alive : bool;
  c_primary : bool;
}

type t
(** Round-robin state. *)

val create : unit -> t

val select :
  t ->
  head:int ->
  ?consistency:Topk_cache.Consistency.t ->
  candidate list ->
  int option
(** The chosen node id, or [None] when no live node — primary
    included — satisfies the level (default
    {!Topk_cache.Consistency.Any}).
    @raise Invalid_argument on a negative token/lag. *)
