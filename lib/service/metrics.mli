(** Lock-free serving metrics.

    All recording paths use [Atomic] read-modify-write operations only —
    no locks — so many worker domains can record concurrently without
    contending.  Histograms use power-of-two buckets (bucket [i] holds
    values in [[2^(i-1), 2^i)]), giving percentile estimates whose
    relative error is bounded by the bucket width; exact count, sum and
    max are tracked on the side. *)

module Counter : sig
  type t

  val create : unit -> t

  val incr : t -> unit

  val add : t -> int -> unit

  val get : t -> int
end

module Gauge : sig
  type t

  val create : unit -> t

  val incr : t -> unit

  val decr : t -> unit

  val set : t -> int -> unit

  val get : t -> int
end

module Histogram : sig
  type t

  val create : unit -> t

  val observe : t -> int -> unit
  (** Record a non-negative observation (negatives clamp to [0]). *)

  val count : t -> int

  val sum : t -> int

  val mean : t -> float

  val max_value : t -> int

  val percentile : t -> float -> int
  (** [percentile t q] for [q] in [[0,1]]: the upper edge of the first
      bucket whose cumulative count reaches rank [ceil (q * count)],
      clamped by the exact maximum.  [0] on an empty histogram. *)
end

(** The registry carried by one {!Executor} pool. *)
type t = {
  started : float;  (** {!Topk_util.Clock} reading at {!create} *)
  submitted : Counter.t;
  completed : Counter.t;
  rejected : Counter.t;       (** admission control: queue-full rejections *)
  failed : Counter.t;         (** queries that raised an exception *)
  cutoff_budget : Counter.t;  (** partial answers due to I/O budget *)
  cutoff_deadline : Counter.t;(** partial answers due to deadline *)
  faults_injected : Counter.t;(** transient EM faults that escaped a query *)
  retries : Counter.t;        (** re-enqueues after a transient fault *)
  respawns : Counter.t;       (** crashed worker domains replaced *)
  aborted : Counter.t;        (** futures resolved [Failed] at shutdown *)
  breaker_rejected : Counter.t;(** admissions refused while a breaker was open *)
  breaker_opens : Counter.t;  (** times any lane's breaker tripped open *)
  breaker_state : Gauge.t;    (** interactive lane: 0 closed / 1 half-open / 2 open *)
  queue_depth : Gauge.t;      (** requests waiting across all lanes *)
  inflight : Gauge.t;         (** requests being executed right now *)
  latency_us : Histogram.t;   (** submit-to-response latency, in µs *)
  ios : Histogram.t;          (** EM-model I/Os per query *)
  batch : Histogram.t;        (** jobs popped per worker wakeup *)
  lane_depth : Gauge.t array;
      (** per-lane queued requests, indexed by {!Lane.index} *)
  lane_admitted : Counter.t array;
      (** per-lane submissions accepted onto the queue *)
  lane_shed : Counter.t array;
      (** per-lane rejections (queue full on [try_submit] + breaker) *)
  lane_breaker_state : Gauge.t array;
      (** per-lane breaker state code (see {!Breaker.state_code}) *)
  lane_latency_us : Histogram.t array;
      (** per-lane submit-to-response latency, in µs *)
  lane_ios : Counter.t array;
      (** per-lane charged EM I/Os of final outcomes — sums exactly to
          the pool's worker-side {!Topk_em.Stats} total once drained *)
  lane_wait_rounds : Histogram.t array;
      (** per-lane queue wait in dispatch decisions ({!Sched.round});
          the max witnesses the aging bound *)
  sharded_queries : Counter.t;(** logical queries fanned out over shards *)
  shards_pruned : Counter.t;  (** shard legs skipped by the max-query bound *)
  fanout : Histogram.t;       (** shard jobs submitted per logical query *)
  shard_latency_us : Histogram.t;(** per-shard leg latency, in µs *)
  shard_ios : Histogram.t;    (** per-shard leg EM I/Os *)
  cert_checked : Counter.t;   (** responses checked against a cost bound *)
  cert_violations : Counter.t;(** checks where measured I/Os exceeded it *)
  updates : Counter.t;        (** ingest: inserts + deletes accepted *)
  seals : Counter.t;          (** ingest: buffers sealed into level-0 runs *)
  merges : Counter.t;         (** ingest: background level merges completed *)
  tombstones : Counter.t;     (** ingest: delete tombstones recorded *)
  epoch_lag : Gauge.t;        (** ingest: current epoch − oldest pinned *)
  merge_latency_us : Histogram.t;(** ingest: background merge wall time, µs *)
  wal_appends : Counter.t;    (** durable: records appended to the WAL *)
  wal_fsyncs : Counter.t;     (** durable: group-commit fsyncs issued *)
  checkpoints : Counter.t;    (** durable: snapshot+manifest generations *)
  recoveries : Counter.t;     (** durable: successful crash recoveries *)
  torn_tails : Counter.t;     (** durable: torn WAL tails truncated *)
  checksum_failures : Counter.t;(** durable: CRC mismatches detected *)
  scrubs : Counter.t;         (** durable: background scrub passes *)
  recovery_time_us : Histogram.t;(** durable: recovery wall time, µs *)
  repl_frames_shipped : Counter.t;(** repl: WAL frames sent to replicas *)
  repl_frames_acked : Counter.t;(** repl: cumulative-ack advances received *)
  repl_frames_dropped : Counter.t;(** repl: messages lost in the transport *)
  snapshot_installs : Counter.t;(** repl: replicas caught up by snapshot *)
  failovers : Counter.t;      (** repl: primary promotions completed *)
  replica_lag : Gauge.t;      (** repl: max replica lag, in op sequences *)
  cache_hits : Counter.t;     (** cache: lookups served from the cache *)
  cache_misses : Counter.t;   (** cache: lookups that fell through *)
  cache_evictions : Counter.t;(** cache: entries dropped by LRU *)
  cache_bypasses : Counter.t; (** cache: answers too cheap to admit *)
  cache_hit_age_us : Histogram.t;(** cache: age of served entries, µs *)
}

val create : unit -> t

val qps : t -> float
(** Completed queries per second of uptime. *)

val cutoff_rate : t -> float
(** Fraction of completed queries that were cut off (budget or
    deadline). *)

val cache_hit_rate : t -> float
(** [hits / (hits + misses)]; [0.] before any lookup. *)

val report : t -> string
(** Text exposition: one [name value] line per scalar metric, plus
    [count/sum/mean/p50/p95/p99/max] lines per histogram. *)
