(** Seeded, deterministic fault injection for the EM layer.

    Real external-memory systems must stay correct when a block fetch
    fails or stalls.  This module gives the simulated EM layer the same
    adversary: an installed {!plan} makes {e every charged block I/O}
    (via {!Stats.io_fault_hook} — direct {!Stats.charge_ios} node
    visits, scans crossing a block boundary) inject transient
    {!Em_fault} exceptions and simulated latency spikes, with seeded
    per-domain randomness so a chaos run is reproducible.

    Determinism: each domain draws from its own splitmix64 stream,
    seeded from [plan.seed] and a stable per-domain stream index (the
    order in which domains first touch the fault layer).  A
    single-domain run therefore replays the exact same fault sequence
    for the same plan; a multi-domain run is deterministic per
    (plan, stream) even though the scheduler decides which query meets
    which stream.

    Injected faults and spikes are charged to the per-domain counters
    in {!Stats} ({!Stats.faults}, {!Stats.spikes},
    {!Stats.faults_total}, {!Stats.spikes_total}).

    When no plan is installed (the default), the hooks are a single
    atomic load — the cost model is unchanged. *)

exception Em_fault of string
(** A transient block-level failure.  The serving layer
    ({!Topk_service.Executor}) classifies this as retryable; anything
    else escaping a query is permanent. *)

type plan = {
  seed : int;                (** root seed of the per-domain streams *)
  io_fault_rate : float;     (** P(transient fault) per charged block I/O *)
  latency_rate : float;      (** P(latency spike) per charged block I/O *)
  latency_s : float;         (** spike duration, seconds *)
  max_faults : int option;   (** stop injecting after this many, globally *)
}

val plan :
  ?io_fault_rate:float ->
  ?latency_rate:float ->
  ?latency_s:float ->
  ?max_faults:int ->
  seed:int ->
  unit ->
  plan
(** Build a plan.  Defaults: [io_fault_rate = 0.05],
    [latency_rate = 0], [latency_s = 100us], no fault cap.
    @raise Invalid_argument if a rate is outside [[0,1]], [latency_s]
    is negative, or [max_faults] is negative. *)

val install : plan -> unit
(** Make [plan] the active plan (replacing any other) and reseed every
    domain's stream.  The [max_faults] cap restarts from zero. *)

val clear : unit -> unit
(** Deactivate fault injection. *)

val active : unit -> plan option

val with_plan : plan -> (unit -> 'a) -> 'a
(** [with_plan p f] runs [f] with [p] installed, restoring the
    previously active plan (if any) afterwards, even on exception. *)

(** {1 Hooks}

    Called by the EM layer; user code normally never calls these. *)

val tick_io : unit -> unit
(** Consulted once per charged block I/O — this module installs itself
    into {!Stats.io_fault_hook} at link time, so every
    {!Stats.charge_ios} / {!Stats.charge_scan} that charges at least
    one I/O draws from the plan.  May stall for a simulated latency
    spike (busy-waiting on {!Topk_util.Clock}) and may raise
    {!Em_fault}. *)

(** {1 Counters} *)

val injected_total : unit -> int
(** Transient faults injected across every domain
    (= {!Stats.faults_total}). *)

val spikes_total : unit -> int
(** Latency spikes injected across every domain
    (= {!Stats.spikes_total}). *)

val pp_plan : Format.formatter -> plan -> unit
