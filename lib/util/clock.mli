(** The one clock of the library: seconds on [CLOCK_MONOTONIC].

    Every latency, deadline and span in [lib/] is read from {!now}.
    The origin is arbitrary (typically boot), so a reading is
    meaningful only against another reading: differences are
    durations, and deadlines ([Topk_service.Limits.deadline]) are
    points on this timeline, not epoch timestamps.  The clock never
    steps backwards, whatever happens to the wall clock. *)

val now : unit -> float
(** Seconds since an arbitrary fixed origin; never decreases. *)

val with_source : (unit -> float) -> (unit -> 'a) -> 'a
(** [with_source src f] runs [f] with {!now} reading [src] instead of
    the monotonic clock, on every domain, and restores the previous
    source afterwards, also when [f] raises.  The seam for tests that
    advance time by hand (deadlines, ages) instead of sleeping. *)
