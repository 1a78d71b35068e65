(** The durable ingestion store: WAL + snapshots + manifest behind one
    {!Topk_ingest.Ingest} instance.

    {!Make} wraps {!Topk_ingest.Ingest.Make} with the full durability
    pipeline.  Every accepted update is framed into the current
    {!Wal} segment {e before} the in-memory index acknowledges it;
    epoch publishes (seal/merge/freeze) trigger {!Snapshot} checkpoints
    by policy; every checkpoint rotates the WAL and republishes the
    {!Manifest}; {!recover} turns a directory back into a live index.

    {b Durability modes.}
    - [Volatile] — no WAL, no checkpoints: the plain in-memory wrapper
      (a control, and the mode for data you can rebuild).
    - [Async n] — group commit: updates are acknowledged once framed
      into the WAL's OS buffer; an fsync happens every [n] appends and
      at every seal.  A crash loses at most the un-synced tail.
    - [Sync] — an fsync per update, acknowledged only after it.

    {b The acked-prefix guarantee.}  Updates are applied in a single
    sequence (1, 2, …).  After a crash at {e any} point, {!recover}
    yields an index equal to the from-scratch oracle over some prefix
    [1..r] of the issued updates, where [r] is at least the number of
    [Sync]-acknowledged updates and at most the number issued — no
    reordering, no holes, no invented operations.  [`topk crash-bench`]
    sweeps seeded crash points and fails hard if any recovery violates
    this.

    {b Checkpoint atomicity.}  A checkpoint writes [snap-(g+1)]
    (tmp → fsync → read-back verify → rename), rotates to
    [wal-(g+1)] carrying the unsealed log suffix, publishes
    [manifest-(g+1)] the same verified way, and only then sweeps
    every stale generation below [g+1] (including artifacts a crash
    stranded mid-GC) — at every instant at least one valid recovery
    root exists on disk.  Every checkpoint — sink-driven or manual —
    runs inside the ingest wrapper's critical section
    ({!Topk_ingest.Ingest.Make.with_durable_state}), so capture and
    commit are atomic with respect to concurrent writers.

    {b Crash model.}  The guarantees are verified under the {!Disk}
    simulated crash model and hold for real process crashes.  Against
    power loss they hold when no fault plan is installed (the
    production path), where {!Disk.fsync} issues a real [fsync] and
    renames/removals sync the containing directory; under an
    installed plan durability is tracked in the model only, keeping
    seeded crash sweeps fast and deterministic. *)

type mode = Volatile | Async of int | Sync

val pp_mode : Format.formatter -> mode -> unit

val mode_of_string : string -> mode option
(** ["volatile"], ["sync"], ["async:<n>"] (n >= 1). *)

module Make (T : Topk_core.Sigs.TOPK) : sig
  module I : module type of Topk_ingest.Ingest.Make (T)

  type t

  val create :
    ?params:Topk_core.Params.t ->
    ?buffer_cap:int ->
    ?fanout:int ->
    ?pool:Topk_service.Executor.t ->
    ?metrics:Topk_service.Metrics.t ->
    ?mode:mode ->
    ?checkpoint_every:int ->
    dir:string ->
    I.P.elem array ->
    t
  (** Build a fresh store over [elems] in [dir] (created if needed).
      Non-volatile modes publish generation 1 (base snapshot + empty
      WAL + manifest) before returning, so a crash at any later point
      recovers.  [mode] defaults to [Sync]; [checkpoint_every]
      (default 4) checkpoints every that-many seals (merges and
      freeze always checkpoint).  [pool] (shared with the ingest
      index for merges) additionally offloads each checkpoint's GC
      sweep of superseded generations onto the pool's [Maintenance]
      lane — safe because the new root is durably published before
      the sweep is scheduled; without a pool the sweep runs inline.
      [metrics] (WAL, checkpoint and ingest counters) defaults to the
      pool's, as in {!Topk_ingest.Ingest.Make.create}.
      @raise Invalid_argument on a bad [mode]/[checkpoint_every] or
      ingest parameter. *)

  val recover :
    ?params:Topk_core.Params.t ->
    ?buffer_cap:int ->
    ?fanout:int ->
    ?pool:Topk_service.Executor.t ->
    ?metrics:Topk_service.Metrics.t ->
    ?mode:mode ->
    ?checkpoint_every:int ->
    dir:string ->
    unit ->
    t option
  (** Rebuild from the newest valid recovery root in [dir]: manifest →
      snapshot → WAL-suffix replay (torn tails truncated and counted,
      corrupt frames stop the replay and are counted) → a fresh
      checkpoint under the new generation.  [None] when no valid root
      exists (the store never finished {!create}, or every root is
      corrupt).  Counts [recoveries] and observes [recovery_time_us]
      on [metrics], which (as in {!create}) defaults to the pool's. *)

  val index : t -> I.t
  (** The live index — query/pin/register it freely.  Update it
      through {!insert}/{!delete} (equivalently, directly: the sink is
      installed on the index itself). *)

  val insert : t -> I.P.elem -> unit
  val delete : t -> I.P.elem -> unit
  val query : t -> I.P.query -> k:int -> I.P.elem list

  val checkpoint : t -> unit
  (** Force a checkpoint of a consistent cut of the current state
      (no-op in [Volatile] mode).  Safe against concurrent writers:
      the cut is captured and committed in one critical section of
      the ingest wrapper, so no acked update can land in the WAL
      segment being retired. *)

  val close : t -> unit
  (** Freeze the index (sealing the remaining buffer, which
      checkpoints in non-volatile modes) and close the WAL.
      Idempotent. *)

  val mode : t -> mode
  val generation : t -> int
  (** Current published generation (0 only in [Volatile] mode). *)

  val recovered_seq : t -> int
  (** Highest operation sequence the recovery replayed ([0] for a
      fresh {!create}): the recovered prefix length [r] of the
      acked-prefix guarantee. *)
end
