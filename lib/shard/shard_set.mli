(** An immutable snapshot of per-shard index structures.

    Built from a disjoint partition (see {!Partitioner}), each shard
    carries two black boxes from the paper's toolbox: any
    {!Topk_core.Sigs.TOPK} (typically a Theorem 1/2 functor output) for
    the shard's top-k answers, and any {!Topk_core.Sigs.MAX} for the
    shard's {e exact} per-query maximum weight — the upper bound the
    {!Planner} uses to prune shards that cannot contribute to the
    global top-k.

    The snapshot is immutable by design, like every structure the
    serving layer registers. *)

module type S = sig
  module P : Topk_core.Sigs.PROBLEM

  type topk
  (** The underlying TOPK structure type of one shard. *)

  type max
  (** The underlying MAX structure type of one shard. *)

  type shard = private {
    index : int;
    elems : P.elem array;  (** the shard's slice of the input *)
    topk : topk;
    max : max;
  }

  type t

  val build : ?params:Topk_core.Params.t -> P.elem array array -> t
  (** Build every shard of a disjoint partition.  The partition arrays
      are copied; element [id]s must be unique across the whole
      partition (as across any single structure's input). *)

  val of_elems :
    ?params:Topk_core.Params.t ->
    strategy:P.elem Partitioner.strategy ->
    shards:int ->
    P.elem array ->
    t
  (** Partition then {!build}. *)

  val shard_count : t -> int

  val shards : t -> shard array

  val size : t -> int
  (** Total elements across shards. *)

  val space_words : t -> int

  val upper_bound : t -> int -> P.query -> float option
  (** [upper_bound t i q] is the exact maximum weight among shard [i]'s
      elements matching [q], or [None] if none matches — one max query
      on the shard's MAX structure, charged normally. *)

  val topk_query : t -> int -> P.query -> k:int -> P.elem list
  (** Shard-local top-k, sorted by decreasing weight. *)

  val pp : Format.formatter -> t -> unit
end

module Make
    (T : Topk_core.Sigs.TOPK)
    (M : Topk_core.Sigs.MAX with module P = T.P) :
  S with module P = T.P and type topk = T.t and type max = M.t
