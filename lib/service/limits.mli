(** Service constraints on one query, unified.

    Earlier layers grew overlapping optional arguments — [?budget] (EM
    I/Os), [?timeout] (relative seconds), [?deadline] (absolute time)
    — threaded separately through {!Request}, {!Executor} and the
    shard fan-out.  A [Limits.t] packages them as one value, so call
    sites construct constraints once and pass them anywhere, and
    fan-out layers can resolve a relative timeout into the single
    absolute deadline shared by every leg.

    Time is {!Topk_util.Clock} time: an absolute deadline is a point
    on that monotonic timeline (e.g. [Clock.now () +. 0.5]), never an
    epoch timestamp. *)

type horizon =
  | Unbounded
  | At of float      (** absolute deadline, a {!Topk_util.Clock.now} reading *)
  | Within of float  (** relative timeout, seconds from submission *)

type t = {
  budget : int option;  (** max EM-model I/Os, [None] = unlimited *)
  horizon : horizon;
}

val none : t
(** No constraints: unlimited budget, unbounded horizon. *)

val make : ?budget:int -> ?timeout:float -> ?deadline:float -> unit -> t
(** Bridge from the historical triple.
    @raise Invalid_argument if [budget < 0] or both [timeout] and
    [deadline] are given. *)

val resolve : t -> now:float -> int option * float option
(** [(budget, absolute_deadline)]: [Within s] becomes [At (now + s)].
    This is the moment a relative timeout is anchored — fan-out layers
    call it once so all legs share one deadline. *)

val pp : Format.formatter -> t -> unit
