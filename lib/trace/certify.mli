(** Cost certification: check measured per-query I/Os against the
    paper's bounds.

    The paper states top-k query cost as a {e contract}:

    - Theorem 1 (worst case):  [Q_top = O(Q_pri(n) + k/B)]
    - Theorem 2 (expected):    [Q_top = O(Q_pri(n) + Q_max(n) + k/B)]
    - Sharded planner (§9):    [Q_top = O(S·Q_max(n/S)
                                 + visited·(Q_pri + Q_max + k/B) + k/B)]

    A {!model} turns the appropriate right-hand side into a concrete
    number of I/Os: the structure-specific [Q_pri]/[Q_max] terms are
    evaluated at the instance's [n] and the current block size, and the
    hidden constant [c] is {e fitted once at build time} by running a
    small calibration workload and taking the max ratio
    [measured / normalizer] (times a safety [margin] for expected-case
    bounds).  After that, every production query can be checked:
    [measured <= c * normalizer(k, visited)] — a verifiable per-query
    artifact in the style of the I/O budgets reported by Brodal's and
    Tao's EM top-k experiments. *)

type theorem =
  | T1                  (** Theorem 1 worst-case reduction *)
  | T2                  (** Theorem 2 expected-case reduction *)
  | Sharded             (** scatter/planner over Theorem-2 shards *)
  | Dynamic of theorem
      (** Bentley–Saxe ingestion wrapper over a static structure whose
          bound is the inner theorem: [visited] here counts the
          immutable runs in the reader's pinned epoch (at most
          [O(log n)] of them), each charged one inner-bound query; an
          additive [ln n] term covers the amortized per-update work
          replayed from the in-memory log, plus the final k-way merge
          scan. *)

type model = {
  instance : string;       (** registry / reporting name *)
  theorem : theorem;
  n : int;                 (** elements indexed (per shard for Sharded) *)
  b : int;                 (** block size the model was fitted at *)
  shards : int;            (** 1 unless Sharded *)
  q_pri : float;           (** Q_pri(n) in I/Os *)
  q_max : float;           (** Q_max(n) in I/Os *)
  c : float;               (** fitted constant *)
  margin : float;          (** safety factor applied on top of [c] *)
}

type verdict = {
  v_instance : string;
  v_measured : int;        (** I/Os the query actually charged *)
  v_bound : float;         (** certified ceiling [c * margin * normalizer] *)
  v_ok : bool;             (** [measured <= bound] *)
}

val normalizer : model -> k:int -> visited:int -> float
(** The bound's shape (right-hand side without the constant), in I/Os.
    [visited] is ignored unless the model is [Sharded] (shards probed)
    or [Dynamic] (runs in the pinned level set). *)

val fit :
  instance:string -> theorem:theorem -> n:int -> ?shards:int ->
  ?margin:float -> q_pri:float -> q_max:float ->
  (int * int option * int) list -> model
(** [fit ~instance ~theorem ~n ~q_pri ~q_max samples] fits [c] from
    calibration runs, where each sample is
    [(k, visited_shards, measured_ios)].  [c] is the max over samples
    of [measured / normalizer]; [margin] (default [2.0], use more for
    high-variance expected-case structures) absorbs randomness beyond
    the calibration set.  Raises [Invalid_argument] on an empty sample
    list. *)

val bound : model -> k:int -> visited:int -> float
(** [c * margin * normalizer]. *)

val check : model -> k:int -> ?visited:int -> measured:int -> unit -> verdict

(** {1 Model registry}

    Models are registered once per structure at build/fit time, then
    every query consults them by instance name — this is what lets the
    serving layer certify responses without threading models through
    the request path. *)

val register : model -> unit
(** Replaces any previous model for the same instance name. *)

val lookup : string -> model option
val models : unit -> model list
val clear_models : unit -> unit

val evaluate :
  instance:string -> k:int -> ?visited:int -> measured:int -> unit ->
  verdict option
(** Check against the registered model for [instance], if any, and
    update the global {!checked}/{!violations} counters. *)

val certify_trace : Trace.t -> verdict option
(** Certify a completed trace: reads the instance name ([ "instance" ]
    attr), [k] and optional ["visited"] from the root span's
    attributes and the measured I/Os from the root span's cost.
    Returns [None] if the trace lacks the attributes or no model is
    registered. *)

val checked : unit -> int
(** Queries evaluated (process-wide). *)

val violations : unit -> int
(** Evaluations where [measured > bound]. *)

val reset_counters : unit -> unit

val pp_verdict : Format.formatter -> verdict -> unit
val theorem_name : theorem -> string
