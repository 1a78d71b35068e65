(** Dynamization of a static prioritized structure by the logarithmic
    method (Bentley–Saxe) with weak deletions.

    The elements live in [O(log n)] buckets of geometrically growing
    capacity, each a static black-box structure.  An insertion merges
    full buckets into the next empty one (amortized
    [O((build(n)/n) log n)]); a deletion tombstones the element and
    triggers a global rebuild once half the stored elements are dead,
    so queries pay at most a factor-2 overhead for filtering.

    This provides the [U_pri] black box that the dynamic form of
    Theorem 2 consumes (Section 5.1 cites Tao [34] for an I/O-optimal
    dynamic structure; the logarithmic method is the classic
    substitution with an extra [log] on updates). *)

(** The logarithmic method itself, over any static structure ['b]
    built per bucket: {!Make} here and the dynamic max structures
    {!Topk_interval.Dyn_max} and {!Topk_range.Dyn_range_max} are its
    instances, and keep only their bucket structure and how a query
    reads one bucket.  The engine charges no I/O; its users do.

    Inserting an id that is still tombstoned (deleted, its stale copy
    still baked into a bucket) rebuilds from the live elements plus
    the new one: dropping the tombstone would resurrect the stale copy,
    keeping it would hide the new one. *)
module Buckets (P : Sigs.PROBLEM) : sig
  type 'b t

  val create : (P.elem array -> 'b) -> P.elem array -> 'b t
  (** [create build_bucket elems]: every bucket, now and after each
      merge or rebuild, is [build_bucket] of the elements it holds. *)

  val insert : 'b t -> P.elem -> unit

  val delete : 'b t -> P.elem -> unit
  (** Tombstones the element's id; a no-op if it is already dead. *)

  val is_dead : 'b t -> P.elem -> bool
  (** Whether the element's id is tombstoned; queries must skip it. *)

  val live : 'b t -> int
  (** Elements currently stored (i.e. not tombstoned). *)

  val rebuilds : 'b t -> int
  (** Global rebuilds so far (by deletions or re-inserts). *)

  val iter : 'b t -> ('b -> unit) -> unit
  (** The non-empty buckets, smallest first. *)

  val space_words : 'b t -> ('b -> int) -> int
  (** The buckets' words by the given measure, plus the elements each
      keeps for merging and the tombstones. *)

  (** A canonical node of a max structure's bucket: its elements by
      decreasing weight, and a head that skips the dead prefix. *)
  type node

  val node : P.elem list -> node

  val nodes_words : node array -> int

  val peek : 'b t -> node -> P.elem option
  (** The node's heaviest live element, advancing its head past dead
      ones (each advance is paid for by one deletion, once). *)

  val heavier : P.elem option -> P.elem option -> P.elem option
  (** The heavier candidate by {!Sigs.Weight_order}, the first on a tie. *)

  val best : 'b t -> ('b -> P.elem option) -> P.elem option
  (** The heaviest of the buckets' answers. *)
end

module Make (S : Sigs.PRIORITIZED) : sig
  include Sigs.DYNAMIC_PRIORITIZED with module P = S.P

  val live : t -> int
  (** Elements currently stored (i.e. not tombstoned). *)

  val rebuilds : t -> int
  (** Global rebuilds so far (by deletions or re-inserts). *)
end
