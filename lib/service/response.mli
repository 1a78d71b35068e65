(** Typed results of a served query: the answers plus a per-query cost
    summary, outcome flag, trace linkage, and placement information. *)

type status =
  | Complete          (** the full top-k answer *)
  | Cutoff_budget     (** I/O budget exhausted: a certified prefix *)
  | Cutoff_deadline   (** deadline passed: a certified prefix *)
  | Failed of Error.t (** the query failed; answers is [[]] *)

(** The per-query cost accounting, carried on every response (and
    combinable across fan-out legs) instead of being re-derived ad hoc
    at call sites. *)
type summary = {
  cost : Topk_em.Stats.snapshot;
      (** I/Os charged by this query alone *)
  rounds : int;  (** doubling rounds executed (1 when unbudgeted) *)
  attempts : int;
      (** execution attempts, [> 1] after transient-fault retries *)
  certified : Topk_trace.Certify.verdict option;
      (** outcome of checking the measured I/Os against the instance's
          registered cost model, when one is registered *)
}

type 'e t = {
  answers : 'e list;
      (** sorted by decreasing weight.  On a cutoff this is a
          {e certified prefix} of the true top-k: the heaviest
          [List.length answers] matching elements, exactly. *)
  status : status;
  summary : summary;
  trace_id : int option;
      (** id of the query's trace in {!Topk_trace.Trace.Store}, when
          tracing was enabled while it ran *)
  latency : float;  (** submit-to-completion wall time, seconds *)
  worker : int;     (** index of the worker that served it *)
  instance : string;  (** registry name the query ran against *)
  k : int;            (** requested k *)
  seq_token : int option;
      (** read-your-writes token: the newest update sequence folded
          into the state this answer was computed over.  Replicated
          reads ({!Topk_repl}) and cache hits on versioned instances
          set it; passing it back as [Consistency.At_least] on a
          later read guarantees that read observes at least this
          write prefix.  [None] on unreplicated paths. *)
}

val seq_token : 'e t -> int option

val zero_summary : summary

val cost : 'e t -> Topk_em.Stats.snapshot

val rounds : 'e t -> int

val attempts : 'e t -> int

val certified : 'e t -> Topk_trace.Certify.verdict option

val is_partial : 'e t -> bool
(** [true] on either cutoff status. *)

val combine_status : status -> status -> status
(** The worse of two statuses, for joining fan-out responses (e.g. the
    per-shard legs of one sharded query): severity increases
    [Complete < Cutoff_budget < Cutoff_deadline < Failed _].  Between
    two [Failed] the left message wins. *)

val status_string : status -> string

val pp : Format.formatter -> 'e t -> unit
(** Summary line (does not print the answers themselves). *)
