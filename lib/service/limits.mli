(** Service constraints on one query, unified.

    Earlier layers grew overlapping optional arguments — [?budget] (EM
    I/Os) and [?deadline] — threaded separately through {!Request},
    {!Executor} and the shard fan-out.  A [Limits.t] packages them as
    one value, so call sites construct constraints once and pass them
    anywhere; a fan-out layer hands every leg the same absolute
    deadline.

    Time is {!Topk_util.Clock} time: a deadline is a point on that
    monotonic timeline (e.g. [Clock.now () +. 0.5]), never an epoch
    timestamp. *)

type t = {
  budget : int option;  (** max EM-model I/Os, [None] = unlimited *)
  deadline : float option;
      (** a {!Topk_util.Clock.now} reading, [None] = unbounded *)
}

val none : t
(** No constraints: unlimited budget, no deadline. *)

val make : ?budget:int -> ?deadline:float -> unit -> t
(** @raise Invalid_argument if [budget < 0]. *)
