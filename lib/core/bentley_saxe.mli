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

module Make (S : Sigs.PRIORITIZED) : sig
  include Sigs.DYNAMIC_PRIORITIZED with module P = S.P

  val live : t -> int
  (** Elements currently stored (i.e. not tombstoned). *)

  val rebuilds : t -> int
  (** Global rebuilds triggered by deletions so far. *)
end
