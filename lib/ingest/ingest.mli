(** Live ingestion: make any {!Topk_core.Sigs.TOPK} structure
    updatable under concurrent reads.

    The paper's structures (and the serving stack built on them) are
    static; this functor wraps one in the architecture shared by Tao's
    dynamic top-k range structure (arXiv:1208.4516) and Brodal's EM
    top-k with sublogarithmic updates (arXiv:1509.08240): a small
    mutable front buffer plus a geometric hierarchy of immutable
    static runs merged in the background.

    {b Write path.}  Inserts and tombstoned deletes append to a
    bounded {!Update_log} (amortized O(1/B) I/Os each).  When the log
    fills, it is sealed — replayed ("latest op per id wins") into a
    fresh level-0 run built with [T.build] — and a new epoch is
    published.  When a level accumulates [fanout] runs, the level
    manager merges its oldest [fanout] into one run a level up; with a
    [?pool], merges run as background jobs on the
    {!Topk_service.Executor} (retried on transient faults, supervised
    across worker crashes, their I/O charged to the worker domain that
    ran them), otherwise inline.  Tombstones ride the runs downward
    and purge when a merge reaches the oldest run.  The classic
    Bentley–Saxe argument gives O((log n)/B) amortized I/Os per
    update.

    {b Read path.}  A reader {!pin}s the current {!Epoch}: an
    immutable run list plus the log prefix at pin time.  Queries
    replay the log (naive scan, EM-charged), answer each run exactly
    (staged doubling past newer sources' overrides), and join
    everything with the certified k-way {!Topk_shard.Gather.merge}.
    Readers never block on compaction and never observe a torn level
    set; superseded level sets are reclaimed when their last reader
    unpins.

    Answers are {e exact} over the surviving set at the pinned view —
    the same set {!Make.view_live} replays from scratch, which is what
    the ingest bench compares against.

    {b Durability.}  The wrapper itself is volatile.  A {!sink}
    installed at {!Make.create} (or {!Make.restore}) time makes it
    durable: every accepted update is offered to the sink {e before}
    the in-memory state acknowledges it (WAL-first), and every epoch
    publish — seal, merge, freeze — is reported with a portable
    {!run_data} description of the level set plus the unsealed log
    suffix, which is exactly what a checkpoint needs.
    {!Topk_durable.Store} provides the production sink (write-ahead
    log, checkpointed snapshots, crash recovery). *)

(** A portable, structure-agnostic description of one immutable run:
    its level, the newest op sequence folded into it, the live
    elements, and the tombstoned ids it carries against older runs.
    What {!Make.restore} consumes and snapshots serialize. *)
type 'e run_data = {
  rd_level : int;
  rd_seq : int;
  rd_elems : 'e array;
  rd_dead : int array;
}

type event = Sealed | Merged | Frozen
(** Which epoch publish triggered an [s_event] callback. *)

(** The durability hook.  All calls happen under the wrapper's mutex
    (no sink-side locking needed); a sink that raises aborts the
    triggering operation before it is acknowledged. *)
type 'e sink = {
  s_append : 'e Update_log.entry -> unit;
      (** Called for every accepted update, before the in-memory
          append.  Sequence numbers are contiguous from 1. *)
  s_event : event -> runs:'e run_data list -> log:'e Update_log.entry list -> unit;
      (** Called after every epoch publish with the full run list
          (newest first) and the unsealed log suffix at that moment. *)
}

module Make (T : Topk_core.Sigs.TOPK) : sig
  module P :
    Topk_core.Sigs.PROBLEM
      with type elem = T.P.elem
       and type query = T.P.query

  type t

  type view
  (** A pinned snapshot: queries against it are stable under
      concurrent writes. *)

  val create :
    ?params:Topk_core.Params.t ->
    ?buffer_cap:int ->
    ?fanout:int ->
    ?pool:Topk_service.Executor.t ->
    ?metrics:Topk_service.Metrics.t ->
    ?sink:P.elem sink ->
    P.elem array ->
    t
  (** Wrap a freshly built [T] over [elems] (the {e base} run).
      [buffer_cap] (default 1024) bounds the update log; [fanout]
      (default 4) is the merge arity per level.  With [?pool], merges
      are scheduled on it ([metrics] defaults to the pool's);
      without, merges run inline on the writer.  [sink] is the
      durability hook (see {!sink}).
      @raise Invalid_argument if [buffer_cap < 1] or [fanout < 2]. *)

  val restore :
    ?params:Topk_core.Params.t ->
    ?buffer_cap:int ->
    ?fanout:int ->
    ?pool:Topk_service.Executor.t ->
    ?metrics:Topk_service.Metrics.t ->
    ?sink:P.elem sink ->
    runs:P.elem run_data list ->
    next_seq:int ->
    unit ->
    t
  (** Rebuild a wrapper from recovered run descriptions (newest first,
      base last), re-running [T.build] over each run's elements.  The
      recovered instance answers exactly over the surviving set the
      runs describe; subsequent updates continue the sequence stream
      at [next_seq].
      @raise Invalid_argument if [runs] is empty, a run's [rd_seq] is
      not below [next_seq], or a parameter is out of range. *)

  val insert : t -> P.elem -> unit
  (** Append an insert.  Inserting an id that is already live
      replaces it (newest wins).  May seal the buffer (and schedule a
      merge) when full.
      @raise Invalid_argument after {!freeze}. *)

  val delete : t -> P.elem -> unit
  (** Append a delete tombstone; deleting an absent id is a no-op in
      the surviving set.
      @raise Invalid_argument after {!freeze}. *)

  val query : t -> P.query -> k:int -> P.elem list
  (** Exact top-k over the surviving set at the current epoch
      ([k <= 0] answers [[]] uncharged, like every TOPK). *)

  val freeze : t -> unit
  (** Stop accepting writes, seal the remaining buffer, and wait for
      background compaction to settle.  Idempotent; queries keep
      working. *)

  (** {1 Pinned views} *)

  val pin : t -> view
  val unpin : view -> unit
  (** Unpin (idempotent); the last unpin of a superseded epoch
      reclaims its level set. *)

  val query_view : view -> P.query -> k:int -> P.elem list
  (** {!query} against the pinned snapshot. *)

  val view_live : view -> P.elem list
  (** The surviving element set of the snapshot, replayed from scratch
      and {e uncharged} — the oracle for correctness checks. *)

  val view_epoch : view -> int
  val view_runs : view -> int
  (** Number of runs in the pinned level set (the [visited] argument
      of the [Dynamic] cost model in {!Topk_trace.Certify}). *)

  val view_seq : view -> int
  (** The newest op sequence number folded into this snapshot ([0] for
      an empty one).  A replicated read reports it as the response's
      read-your-writes token. *)

  (** {1 Integration} *)

  val update_ops : t -> P.elem Topk_service.Registry.update_ops

  val register :
    Topk_service.Registry.t -> name:string -> t -> (P.query, P.elem) Topk_service.Registry.handle
  (** Register the wrapper as a queryable instance whose handle
      carries {!update_ops} — [Registry.insert]/[delete]/[freeze]
      work on it. *)

  (** The wrapper as a TOPK in its own right ([build] wraps
      [create] with defaults and no pool). *)
  module Topk :
    Topk_core.Sigs.TOPK
      with module P = P
       and type t = t

  (** {1 Introspection} *)

  val size : t -> int
  (** Surviving elements (exact while ids are only re-inserted after
      a delete, which the newest-wins semantics makes the natural
      usage). *)

  val space_words : t -> int
  val epoch : t -> int
  val epoch_lag : t -> int
  val levels : t -> (int * int) list
  (** [(level, runs)] per contiguous level block, newest first. *)

  val run_count : t -> int
  val log_length : t -> int

  val last_seq : t -> int
  (** The newest op sequence number assigned so far ([0] before the
      first update). *)

  val with_durable_state :
    t ->
    (runs:P.elem run_data list -> log:P.elem Update_log.entry list -> 'a) ->
    'a
  (** Run [f] over a consistent cut of the durable state — the current
      level set as {!run_data}s (newest first) and the unsealed log
      suffix (oldest first) — while {e still holding} the wrapper's
      mutex: no update is accepted and no {!sink} event fires until
      [f] returns.  This is what a manual durable checkpoint needs —
      capturing the cut and committing it must be one critical
      section, or a concurrent writer could append to a WAL segment
      the checkpoint is about to retire (losing an acked update), and
      a sink-driven checkpoint could be overwritten by a staler manual
      capture.  [f] must not call back into this wrapper. *)

  val frozen : t -> bool
  val wedged : t -> bool
  (** A background merge failed permanently (retries exhausted or the
      pool shut down): compaction is parked, serving continues on the
      last published epoch. *)
end
