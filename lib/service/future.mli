(** Single-assignment cells ("ivars") used to hand a worker's response
    back to the submitting thread.  Writes and reads may come from
    different domains.  The cell is one atomic: filling is a
    compare-and-set, and an awaiter spins for {!Spin.bound} before it
    parks, so a hand-off that completes within the bound never enters
    the kernel. *)

type 'a t

val create : unit -> 'a t

val fill : 'a t -> 'a -> unit
(** Publish the value, then run the {!on_fill} callbacks and wake
    parked awaiters.  Every callback runs even if one raises; the
    first exception is re-raised afterwards.
    @raise Invalid_argument if already filled. *)

val try_fill : 'a t -> 'a -> bool
(** Like {!fill} but returns [false] instead of raising when the cell
    is already filled.  Used by the supervision layer, where a request
    may be resolved by either its worker or the shutdown path —
    whichever gets there first wins, the other is a no-op. *)

val await : 'a t -> 'a
(** Return the value once available: spin for up to {!Spin.bound},
    then block the calling thread on a mutex and condition created for
    this wait. *)

val poll : 'a t -> 'a option
(** Non-blocking read. *)

val on_fill : 'a t -> ('a -> unit) -> unit
(** Run [f] with the value once it is available: immediately (on the
    calling domain) if already filled, otherwise on the domain that
    eventually fills the cell, after the value is published.  Callbacks
    run in no guaranteed order and must not fill this future.  The
    {!Client} facade uses this to admit completed pool responses into
    the answer cache without blocking the submitter. *)
