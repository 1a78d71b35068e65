(** Failure-rate-driven circuit breaker / admission controller.

    Sits in front of {!Executor} submission.  The classic three-state
    machine:

    - {b Closed} — everything is admitted; the last [window] {e final}
      request outcomes are tracked in a ring.  Once at least
      [min_samples] outcomes are present and the failure fraction
      reaches [failure_threshold], the breaker trips to Open.
    - {b Open} — every admission is rejected for [open_duration]
      seconds (callers shed load instead of piling onto a failing
      pool), after which the next admission check moves to Half-open.
    - {b Half-open} — at most [half_open_probes] probe requests are
      admitted; that many successes close the breaker again, any
      failure re-opens it.

    Only final outcomes count: a transient fault that is retried and
    eventually succeeds is one success; exhausted retries are one
    failure.  Partial (budget/deadline cut-off) answers count as
    successes — the pool served them by design. *)

type state = Closed | Open | Half_open

type policy = {
  window : int;              (** sliding window of final outcomes *)
  failure_threshold : float; (** trip when failures/window >= this *)
  min_samples : int;         (** don't trip before this many outcomes *)
  open_duration : float;     (** seconds to reject before half-open *)
  half_open_probes : int;    (** probe successes needed to close *)
}

val default_policy : policy
(** window 128, threshold 0.5, min_samples 32, open 1s, 4 probes. *)

type t

val create : ?policy:policy -> ?on_transition:(state -> unit) -> unit -> t
(** [on_transition] is invoked on every state change (under the
    breaker's lock — keep it trivial; the executor uses it to update
    metrics).
    @raise Invalid_argument on a malformed policy. *)

val admit : t -> now:float -> bool
(** Should a new request be admitted right now?  May transition
    Open -> Half-open when [open_duration] has elapsed. *)

val record : t -> now:float -> ok:bool -> unit
(** Report a request's final outcome ([ok = false] for permanent
    failures only). *)

val state : t -> state

val opens : t -> int
(** Cumulative number of times the breaker tripped to Open. *)

val state_code : state -> int
(** [Closed -> 0], [Half_open -> 1], [Open -> 2] (for gauges). *)

val state_string : state -> string
