(** The one error vocabulary of the serving surface.

    Before this type, failure travelled as raw strings: [Failure]
    payloads from the executor, breaker and router paths, a
    polymorphic [`Not_found] from registry resolution, and dedicated
    exceptions per module.  Every failure a caller can observe — a
    rejected submission, a refused routed read, a [Failed] response —
    is now one of these five cases, raised as {!Error} on synchronous
    paths and carried by {!Response.status} on asynchronous ones. *)

type t =
  | Overloaded
      (** Admission refused by backpressure: the circuit breaker is
          open, or a blocking submit found the pool shedding. *)
  | Not_found of string list
      (** No instance under that name; carries every registered name
          ranked by edit distance, closest first. *)
  | Deadline
      (** The request's deadline had already passed when it would
          have started. *)
  | Shed
      (** Refused without doing work: a nonblocking submit found the
          queue full, or no replica satisfies the requested
          consistency. *)
  | Failed of string
      (** The query raised, or the pool shut down underneath it; the
          message is the diagnostic. *)

exception Error of t

val fail : t -> 'a
(** [fail e] raises [Error e]. *)

val to_string : t -> string

val pp : Format.formatter -> t -> unit
