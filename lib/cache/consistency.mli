(** The one consistency vocabulary of the read path.

    Before this type existed the same idea was spelled three ways:
    the replication router took [?min_seq]/[?max_lag] optional
    arguments, epoch pins were ad-hoc [view] plumbing, and the answer
    cache needed its own staleness rule.  Every query entry point
    ({!Topk_service.Client}, [Scatter.query], [Group.read]) now takes
    one [Consistency.t]: the cache interprets it through {!admits},
    the replication router per candidate replica. *)

type t =
  | Any
      (** No client-imposed recency token: serve the freshest
          consistent answer.  The cache may substitute an entry only
          at exactly the live version, so [Any] never weakens
          answers — cache-on is answer-identical to cache-off. *)
  | At_least of int
      (** Read-your-writes: the answering snapshot's sequence must be
          at or above the token (e.g. the [seq_token] of an
          acknowledged write). *)
  | Pinned of int
      (** Exactly the snapshot with this sequence (an ingest epoch's
          {!Topk_ingest.Ingest.Make.view_seq} or a replica seq). *)
  | Max_lag of int
      (** Bounded staleness: at most this many op sequences behind
          the live head. *)

val validate : t -> unit
(** @raise Invalid_argument on a negative token/lag. *)

val admits : current:Version.t -> entry:Version.t -> t -> bool
(** May an answer computed at [entry] serve a read issued when the
    live version is [current]?  Never across terms, never from the
    future; see the per-constructor documentation for the rest. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
