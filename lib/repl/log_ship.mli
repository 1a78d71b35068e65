(** Primary-side WAL shipping: a retained history plus per-peer
    go-back-N cursors with cumulative-ack flow control.

    {b Outlog.}  Every node — primary or replica — feeds its accepted
    updates into an {!Outlog}: the retained suffix of the single
    sequence stream, bounded by [retain] entries (older history is
    garbage-collected, raising the {e floor}).  Because replicas keep
    one too, failover can promote any of them and shipping resumes
    from its retained history with no handoff.

    {b Shipping.}  {!attach} builds a shipper over an outlog.  Each
    peer has a send cursor and a cumulative ack; {!tick} transmits up
    to a bounded in-flight {e window} per peer and, when a lagging
    peer makes no progress for [rto] ticks, rewinds its cursor to just
    past its ack (go-back-N — duplicates are harmless because the
    replica applies strictly in sequence).  A cursor that falls below
    the outlog floor cannot be served from history at all: {!tick}
    reports it through the [install] callback and the caller ships a
    {!Wire.Install} image instead. *)

module Outlog : sig
  type 'e t

  val create : ?retain:int -> unit -> 'e t
  (** Empty history starting at seq 1, retaining the newest [retain]
      (default 512) entries. @raise Invalid_argument if [retain < 1]. *)

  val append : 'e t -> 'e Topk_ingest.Update_log.entry -> unit
  (** @raise Invalid_argument unless [e.seq] is exactly [last + 1] —
      the outlog mirrors one contiguous stream. *)

  val last : 'e t -> int
  (** Newest retained seq ([floor - 1] when empty). *)

  val floor : 'e t -> int
  (** Lowest retained seq. *)

  val get : 'e t -> int -> 'e Topk_ingest.Update_log.entry option

  val reset_to : 'e t -> seq:int -> unit
  (** After a snapshot install at [seq]: drop everything and restart
      the stream just above it. *)
end

type 'e t

val attach : ?window:int -> ?rto:int -> 'e Outlog.t -> 'e t
(** A shipper over [olog] (shared, not copied): at most [window]
    (default 8) unacked frames in flight per peer, retransmit after
    [rto] (default 6) idle ticks.
    @raise Invalid_argument if either is [< 1]. *)

val outlog : 'e t -> 'e Outlog.t

val add_peer : 'e t -> now:int -> int -> unit
(** Start shipping to a peer (idempotent), cursor at seq 1 — the
    first cumulative ack snaps it forward to what the peer has. *)

val acks_covering : 'e t -> int -> int
(** Peers whose cumulative ack reaches [seq] — the quorum test. *)

val handle_ack : 'e t -> peer:int -> upto:int -> now:int -> bool
(** Apply a cumulative ack; [true] when it advanced the peer. *)

val mark_installing : 'e t -> peer:int -> upto:int -> now:int -> unit
(** The caller just shipped an install image covering [1..upto]: move
    the cursor past it.  If the image is lost, the rto rewinds the
    cursor below the floor again and a fresh install goes out. *)

val tick :
  'e t ->
  now:int ->
  ship:(peer:int -> 'e Topk_ingest.Update_log.entry -> unit) ->
  install:(peer:int -> unit) ->
  unit
(** One pump: rto rewinds, then per-peer window transmission.  [ship]
    and [install] are invoked synchronously, in peer order. *)
