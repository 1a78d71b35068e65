(** The dynamic form of Theorem 2 (the "Update" paragraph of
    Section 4): given dynamic prioritized and max black boxes, the
    sample-ladder top-k structure supports insertions and deletions in
    [O(U_pri + U_max)] expected (amortized if the black boxes
    amortize).

    An inserted element joins sample [R_i] independently with
    probability [1/K_i]; since the rates decrease geometrically it
    lands in O(1) max structures in expectation, and a hash table
    remembers which ones so deletion undoes exactly those.  The ladder
    rungs are a function of [n], so a global resample fires when the
    live size drifts by a factor of 2 — O(1) amortized extra updates.

    The ladder geometry is {!Theorem2.ladder} and queries run
    {!Theorem2.Walk}, the static structure's rounds (traced the same
    way); only the upkeep above is this module's.  The start rung is
    chosen against [K_1] of the current ladder, and past the ladder
    the query scans the live set. *)

module Make
    (S : Sigs.DYNAMIC_PRIORITIZED)
    (M : Sigs.DYNAMIC_MAX with module P = S.P) : sig
  include Sigs.DYNAMIC_TOPK with module P = S.P

  val rungs : t -> int

  val resamples : t -> int
  (** Ladder rebuilds triggered by size drift so far. *)

  val rounds_run : t -> int

  val rounds_failed : t -> int
end
