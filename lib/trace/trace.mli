(** Structured per-query tracing.

    A {e trace} is a tree of {e spans} recorded while one query runs:
    the root span covers the whole request, child spans cover the
    algorithmic phases underneath it — Theorem-1 core-set descents,
    Theorem-2 sample-ladder rounds, cost-monitored prioritized probes,
    shard-planner bound checks, scatter legs, executor retry rounds.
    The replication layer roots its own spans for operations that do
    not run under a query: [repl.read] (a routed replica read, with
    the answering snapshot's cost delta), [repl.install] (capturing
    and shipping a snapshot image to a lagging peer) and
    [repl.promote] (failover).
    Every span carries wall-clock start/stop timestamps and the
    {!Topk_em.Stats} delta (I/Os, scanned elements, queries) charged on
    the recording domain while it was open, so a finished trace shows
    {e where the I/Os of one query went} — the per-operation cost
    breakdown that the paper's bounds are stated in.

    Tracing is {e off by default} and costs one [Atomic.get] per
    potential span when disabled.  When enabled, spans are recorded
    into a per-domain context (no locks on the hot path) and completed
    traces are published to the global ring-buffer {!Store}.

    Instrumented code never charges {!Topk_em.Stats} itself, so
    enabling tracing adds {e zero} I/Os to every query — asserted by
    [bench/e18_trace.ml]. *)

(** Attribute values attached to spans. *)
type value = Int of int | Float of float | Str of string | Bool of bool

type span = {
  name : string;
  mutable attrs : (string * value) list;
  t_start : float;                   (** {!Topk_util.Clock} reading at open *)
  mutable t_end : float;             (** at close; [nan] while open *)
  mutable cost : Topk_em.Stats.snapshot;
      (** Stats delta charged on this domain while the span was open
          (includes children). *)
  mutable children : span list;      (** in recording order *)
}

type t = {
  id : int;                          (** unique per process *)
  parent : int option;
      (** id of the enclosing trace when this trace was created by a
          worker serving a scattered leg of another trace *)
  root : span;
}

(** {1 Global switch} *)

val enable : unit -> unit
val disable : unit -> unit
val is_enabled : unit -> bool

(** {1 Recording} *)

val with_root :
  ?parent:int -> ?attrs:(string * value) list -> string ->
  (unit -> 'a) -> 'a * t option
(** [with_root name f] runs [f] under a fresh root span on the calling
    domain and returns its result together with the completed trace,
    which is also published to {!Store}.  Returns [None] when tracing
    is disabled.  If a root is already open on this domain the call
    degrades to {!with_span} (returning [None]).  The trace is
    completed and stored even when [f] raises. *)

val with_span :
  ?attrs:(string * value) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] under a child span of the innermost
    open span on this domain.  A no-op passthrough when tracing is
    disabled or no root is open.  The span is closed (and its Stats
    delta captured) even when [f] raises. *)

val add_attr : string -> value -> unit
(** Attach an attribute to the innermost open span on this domain; a
    no-op when tracing is disabled or no span is open.  Re-adding a key
    replaces the previous value. *)

val event : ?attrs:(string * value) list -> string -> unit
(** Record a zero-duration child span (a point event). *)

val current_trace_id : unit -> int option
(** The id of the trace currently recording on this domain, if any.
    Used to link scattered legs back to their parent trace. *)

(** {1 Reading} *)

val attr : span -> string -> value option
val attr_int : span -> string -> int option
val attr_str : span -> string -> string option
val duration_us : span -> float
val span_count : t -> int
val find_spans : t -> string -> span list
(** All spans named [name], depth-first. *)

val to_json : t -> string
(** The whole trace as a single-line JSON object ([{"id":..,"root":
    {..,"children":[..]}}]).  Non-finite floats are encoded as strings
    (["inf"], ["-inf"], ["nan"]) so the output is always valid JSON. *)

(** {1 Trace store}

    A bounded ring buffer of completed traces, shared by all domains
    (mutex-guarded; contention only at trace completion, never inside
    spans). *)

module Store : sig
  val set_capacity : int -> unit
  (** Resize the ring (default 512) and clear it. *)

  val add : t -> unit

  val length : unit -> int
  (** Traces currently held. *)

  val total : unit -> int
  (** Traces ever added. *)

  val recent : ?limit:int -> unit -> t list
  (** Most recent first. *)

  val find : int -> t option
  (** Look up a held trace by id. *)

  val clear : unit -> unit
  val export : ?limit:int -> unit -> string
  (** Newline-separated JSON, most recent first. *)
end
