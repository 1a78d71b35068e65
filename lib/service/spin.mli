(** Bounded busy-waiting before a blocking wait.

    A pool hand-off ({!Executor} worker picking up a job, caller
    awaiting its {!Future}) usually completes within a few
    microseconds, well under the cost of parking in the kernel and
    being woken again.  Both sides therefore poll for {!bound} seconds
    first and block only if the other side has not arrived by then. *)

val bound : float
(** The spin budget in seconds (50 µs).  Chosen by a sweep on the
    scatter-uniform workload: 20 µs gained less, 100 µs gained nothing
    more (DESIGN.md §7). *)

val until : (unit -> bool) -> bool
(** [until ready] polls [ready], relaxing the CPU between polls, until
    it returns [true] (result [true]) or {!bound} seconds have passed
    on {!Topk_util.Clock} (result [false]).  Every 32 polls it also
    yields the CPU ([sched_yield]): when the domain it waits for is
    queued on the same core, that domain runs at once instead of after
    the bound.  Pinned to one CPU, scatter-uniform ran 3x slower
    without the yield.  Under a frozen test clock the budget never
    runs out, so the caller polls until [ready]. *)
