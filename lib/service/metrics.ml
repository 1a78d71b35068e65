(* Lock-free serving metrics: plain [Atomic.t] counters and power-of-two
   bucketed histograms.  Workers record without ever taking a lock, so
   metrics cannot become a point of contention in the pool. *)

module Clock = Topk_util.Clock

module Counter = struct
  type t = int Atomic.t

  let create () = Atomic.make 0

  let incr t = Atomic.incr t

  let add t n = ignore (Atomic.fetch_and_add t n)

  let get t = Atomic.get t
end

module Gauge = struct
  type t = int Atomic.t

  let create () = Atomic.make 0

  let incr t = Atomic.incr t

  let decr t = Atomic.decr t

  let set t v = Atomic.set t v

  let get t = Atomic.get t
end

module Histogram = struct
  (* Bucket [0] holds the observation [0]; bucket [i >= 1] holds
     observations in [2^(i-1), 2^i).  63 buckets cover every
     non-negative OCaml int. *)
  let buckets = 63

  type t = {
    counts : int Atomic.t array;
    sum : int Atomic.t;
    count : int Atomic.t;
    max : int Atomic.t;
  }

  let create () =
    {
      counts = Array.init buckets (fun _ -> Atomic.make 0);
      sum = Atomic.make 0;
      count = Atomic.make 0;
      max = Atomic.make 0;
    }

  let bucket_of v =
    let rec bits acc v = if v = 0 then acc else bits (acc + 1) (v lsr 1) in
    if v <= 0 then 0 else min (buckets - 1) (bits 0 v)

  (* Upper edge of bucket [i] (inclusive): the value reported for
     percentiles falling in that bucket. *)
  let upper_of i = if i = 0 then 0 else (1 lsl i) - 1

  let rec update_max t v =
    let cur = Atomic.get t.max in
    if v > cur && not (Atomic.compare_and_set t.max cur v) then update_max t v

  let observe t v =
    let v = max 0 v in
    Atomic.incr t.counts.(bucket_of v);
    ignore (Atomic.fetch_and_add t.sum v);
    Atomic.incr t.count;
    update_max t v

  let count t = Atomic.get t.count

  let sum t = Atomic.get t.sum

  let max_value t = Atomic.get t.max

  let mean t =
    let n = count t in
    if n = 0 then 0. else float_of_int (sum t) /. float_of_int n

  (* Approximate percentile: the upper edge of the first bucket whose
     cumulative count reaches [q * count], clamped by the exact max. *)
  let percentile t q =
    let n = count t in
    if n = 0 then 0
    else begin
      let rank = int_of_float (ceil (q *. float_of_int n)) in
      let rank = Stdlib.max 1 (Stdlib.min n rank) in
      let rec go i acc =
        if i >= buckets then max_value t
        else
          let acc = acc + Atomic.get t.counts.(i) in
          if acc >= rank then Stdlib.min (upper_of i) (max_value t)
          else go (i + 1) acc
      in
      go 0 0
    end
end

type t = {
  started : float;
  submitted : Counter.t;
  completed : Counter.t;
  rejected : Counter.t;      (* admission control: queue full on try_submit *)
  failed : Counter.t;        (* queries that raised *)
  cutoff_budget : Counter.t;
  cutoff_deadline : Counter.t;
  (* supervision / fault tolerance *)
  faults_injected : Counter.t; (* transient EM faults that escaped a query *)
  retries : Counter.t;         (* re-enqueues after a transient fault *)
  respawns : Counter.t;        (* crashed worker domains replaced *)
  aborted : Counter.t;         (* futures resolved Failed at shutdown *)
  breaker_rejected : Counter.t;(* admissions refused by an open breaker *)
  breaker_opens : Counter.t;   (* times any lane's breaker tripped open *)
  breaker_state : Gauge.t;     (* interactive lane: 0 closed / 1 half-open / 2 open *)
  queue_depth : Gauge.t;       (* total queued across lanes *)
  inflight : Gauge.t;
  latency_us : Histogram.t;  (* submit-to-response, microseconds *)
  ios : Histogram.t;         (* EM-model I/Os per query *)
  batch : Histogram.t;       (* jobs popped per worker wakeup *)
  (* QoS lanes (recorded by the executor; arrays indexed by Lane.index) *)
  lane_depth : Gauge.t array;         (* queued per lane *)
  lane_admitted : Counter.t array;    (* submissions accepted per lane *)
  lane_shed : Counter.t array;        (* queue-full + breaker rejections *)
  lane_breaker_state : Gauge.t array; (* per-lane breaker state code *)
  lane_latency_us : Histogram.t array;(* submit-to-response per lane *)
  lane_ios : Counter.t array;         (* charged I/Os of final outcomes *)
  lane_wait_rounds : Histogram.t array;(* dispatch rounds waited in queue *)
  (* shard fan-out (recorded by Topk_shard.Scatter) *)
  sharded_queries : Counter.t;   (* logical queries fanned out *)
  shards_pruned : Counter.t;     (* shard legs skipped by max-query bound *)
  fanout : Histogram.t;          (* shard jobs submitted per logical query *)
  shard_latency_us : Histogram.t;(* per-shard leg latency *)
  shard_ios : Histogram.t;       (* per-shard leg EM I/Os *)
  (* cost certification (recorded by Request when a model is registered) *)
  cert_checked : Counter.t;      (* responses checked against their bound *)
  cert_violations : Counter.t;   (* checks where measured > bound *)
  (* live ingestion (recorded by Topk_ingest) *)
  updates : Counter.t;           (* inserts + deletes accepted *)
  seals : Counter.t;             (* buffers sealed into level-0 runs *)
  merges : Counter.t;            (* background level merges completed *)
  tombstones : Counter.t;        (* delete tombstones recorded *)
  epoch_lag : Gauge.t;           (* current epoch - oldest pinned epoch *)
  merge_latency_us : Histogram.t;(* background merge wall time *)
  (* durability (recorded by Topk_durable) *)
  wal_appends : Counter.t;       (* records appended to the WAL *)
  wal_fsyncs : Counter.t;        (* group-commit fsync batches flushed *)
  checkpoints : Counter.t;       (* snapshot+manifest generations published *)
  recoveries : Counter.t;        (* successful crash recoveries *)
  torn_tails : Counter.t;        (* torn WAL tails truncated at recovery *)
  checksum_failures : Counter.t; (* CRC mismatches detected anywhere *)
  scrubs : Counter.t;            (* background scrub passes completed *)
  recovery_time_us : Histogram.t;(* manifest-to-replayed recovery wall time *)
  (* replication (recorded by Topk_repl) *)
  repl_frames_shipped : Counter.t; (* WAL frames sent to replicas *)
  repl_frames_acked : Counter.t;   (* cumulative-ack advances received *)
  repl_frames_dropped : Counter.t; (* messages lost in the transport *)
  snapshot_installs : Counter.t;   (* replicas caught up by snapshot install *)
  failovers : Counter.t;           (* primary promotions completed *)
  replica_lag : Gauge.t;           (* max replica lag, in op sequences *)
  (* answer cache (recorded by Client) *)
  cache_hits : Counter.t;        (* lookups served from the cache *)
  cache_misses : Counter.t;      (* lookups that fell through *)
  cache_evictions : Counter.t;   (* entries dropped by LRU pressure *)
  cache_bypasses : Counter.t;    (* answers too cheap to admit *)
  cache_hit_age_us : Histogram.t;(* age of served entries, microseconds *)
}

let create () =
  {
    started = Clock.now ();
    submitted = Counter.create ();
    completed = Counter.create ();
    rejected = Counter.create ();
    failed = Counter.create ();
    cutoff_budget = Counter.create ();
    cutoff_deadline = Counter.create ();
    faults_injected = Counter.create ();
    retries = Counter.create ();
    respawns = Counter.create ();
    aborted = Counter.create ();
    breaker_rejected = Counter.create ();
    breaker_opens = Counter.create ();
    breaker_state = Gauge.create ();
    queue_depth = Gauge.create ();
    inflight = Gauge.create ();
    latency_us = Histogram.create ();
    ios = Histogram.create ();
    batch = Histogram.create ();
    lane_depth = Array.init Lane.count (fun _ -> Gauge.create ());
    lane_admitted = Array.init Lane.count (fun _ -> Counter.create ());
    lane_shed = Array.init Lane.count (fun _ -> Counter.create ());
    lane_breaker_state = Array.init Lane.count (fun _ -> Gauge.create ());
    lane_latency_us = Array.init Lane.count (fun _ -> Histogram.create ());
    lane_ios = Array.init Lane.count (fun _ -> Counter.create ());
    lane_wait_rounds = Array.init Lane.count (fun _ -> Histogram.create ());
    sharded_queries = Counter.create ();
    shards_pruned = Counter.create ();
    fanout = Histogram.create ();
    shard_latency_us = Histogram.create ();
    shard_ios = Histogram.create ();
    cert_checked = Counter.create ();
    cert_violations = Counter.create ();
    updates = Counter.create ();
    seals = Counter.create ();
    merges = Counter.create ();
    tombstones = Counter.create ();
    epoch_lag = Gauge.create ();
    merge_latency_us = Histogram.create ();
    wal_appends = Counter.create ();
    wal_fsyncs = Counter.create ();
    checkpoints = Counter.create ();
    recoveries = Counter.create ();
    torn_tails = Counter.create ();
    checksum_failures = Counter.create ();
    scrubs = Counter.create ();
    recovery_time_us = Histogram.create ();
    repl_frames_shipped = Counter.create ();
    repl_frames_acked = Counter.create ();
    repl_frames_dropped = Counter.create ();
    snapshot_installs = Counter.create ();
    failovers = Counter.create ();
    replica_lag = Gauge.create ();
    cache_hits = Counter.create ();
    cache_misses = Counter.create ();
    cache_evictions = Counter.create ();
    cache_bypasses = Counter.create ();
    cache_hit_age_us = Histogram.create ();
  }

let cache_hit_rate t =
  let h = Counter.get t.cache_hits and m = Counter.get t.cache_misses in
  if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)

let uptime t = Clock.now () -. t.started

let qps t =
  let dt = uptime t in
  if dt <= 0. then 0. else float_of_int (Counter.get t.completed) /. dt

let cutoff_rate t =
  let n = Counter.get t.completed in
  if n = 0 then 0.
  else
    float_of_int (Counter.get t.cutoff_budget + Counter.get t.cutoff_deadline)
    /. float_of_int n

(* Text exposition, one metric per line ([name value]), followed by
   histogram summaries — ready to be scraped or read by a human. *)
let report t =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let histo name h =
    line "%s_count %d" name (Histogram.count h);
    line "%s_sum %d" name (Histogram.sum h);
    line "%s_mean %.1f" name (Histogram.mean h);
    line "%s_p50 %d" name (Histogram.percentile h 0.50);
    line "%s_p95 %d" name (Histogram.percentile h 0.95);
    line "%s_p99 %d" name (Histogram.percentile h 0.99);
    line "%s_max %d" name (Histogram.max_value h)
  in
  line "topk_uptime_seconds %.3f" (uptime t);
  line "topk_queries_submitted %d" (Counter.get t.submitted);
  line "topk_queries_completed %d" (Counter.get t.completed);
  line "topk_queries_rejected %d" (Counter.get t.rejected);
  line "topk_queries_failed %d" (Counter.get t.failed);
  line "topk_queries_cutoff_budget %d" (Counter.get t.cutoff_budget);
  line "topk_queries_cutoff_deadline %d" (Counter.get t.cutoff_deadline);
  line "topk_faults_injected %d" (Counter.get t.faults_injected);
  line "topk_retries %d" (Counter.get t.retries);
  line "topk_worker_respawns %d" (Counter.get t.respawns);
  line "topk_queries_aborted %d" (Counter.get t.aborted);
  line "topk_breaker_rejected %d" (Counter.get t.breaker_rejected);
  line "topk_breaker_opens %d" (Counter.get t.breaker_opens);
  line "topk_breaker_state %d" (Gauge.get t.breaker_state);
  line "topk_cutoff_rate %.4f" (cutoff_rate t);
  line "topk_qps %.1f" (qps t);
  line "topk_queue_depth %d" (Gauge.get t.queue_depth);
  line "topk_inflight %d" (Gauge.get t.inflight);
  histo "topk_latency_us" t.latency_us;
  histo "topk_ios" t.ios;
  histo "topk_batch_size" t.batch;
  List.iter
    (fun lane ->
      let i = Lane.index lane in
      let pre = "topk_lane_" ^ Lane.name lane in
      line "%s_depth %d" pre (Gauge.get t.lane_depth.(i));
      line "%s_admitted %d" pre (Counter.get t.lane_admitted.(i));
      line "%s_shed %d" pre (Counter.get t.lane_shed.(i));
      line "%s_breaker_state %d" pre (Gauge.get t.lane_breaker_state.(i));
      line "%s_ios %d" pre (Counter.get t.lane_ios.(i));
      histo (pre ^ "_latency_us") t.lane_latency_us.(i);
      histo (pre ^ "_wait_rounds") t.lane_wait_rounds.(i))
    Lane.all;
  line "topk_sharded_queries %d" (Counter.get t.sharded_queries);
  line "topk_shards_pruned %d" (Counter.get t.shards_pruned);
  histo "topk_fanout" t.fanout;
  histo "topk_shard_latency_us" t.shard_latency_us;
  histo "topk_shard_ios" t.shard_ios;
  line "topk_cert_checked %d" (Counter.get t.cert_checked);
  line "topk_cert_violations %d" (Counter.get t.cert_violations);
  line "topk_ingest_updates %d" (Counter.get t.updates);
  line "topk_ingest_seals %d" (Counter.get t.seals);
  line "topk_ingest_merges %d" (Counter.get t.merges);
  line "topk_ingest_tombstones %d" (Counter.get t.tombstones);
  line "topk_ingest_epoch_lag %d" (Gauge.get t.epoch_lag);
  histo "topk_ingest_merge_latency_us" t.merge_latency_us;
  line "topk_wal_appends %d" (Counter.get t.wal_appends);
  line "topk_wal_fsyncs %d" (Counter.get t.wal_fsyncs);
  line "topk_checkpoints %d" (Counter.get t.checkpoints);
  line "topk_recoveries %d" (Counter.get t.recoveries);
  line "topk_torn_tails %d" (Counter.get t.torn_tails);
  line "topk_checksum_failures %d" (Counter.get t.checksum_failures);
  line "topk_scrubs %d" (Counter.get t.scrubs);
  histo "topk_recovery_time_us" t.recovery_time_us;
  line "topk_repl_frames_shipped %d" (Counter.get t.repl_frames_shipped);
  line "topk_repl_frames_acked %d" (Counter.get t.repl_frames_acked);
  line "topk_repl_frames_dropped %d" (Counter.get t.repl_frames_dropped);
  line "topk_repl_snapshot_installs %d" (Counter.get t.snapshot_installs);
  line "topk_repl_failovers %d" (Counter.get t.failovers);
  line "topk_repl_replica_lag %d" (Gauge.get t.replica_lag);
  line "topk_cache_hits %d" (Counter.get t.cache_hits);
  line "topk_cache_misses %d" (Counter.get t.cache_misses);
  line "topk_cache_evictions %d" (Counter.get t.cache_evictions);
  line "topk_cache_bypasses %d" (Counter.get t.cache_bypasses);
  line "topk_cache_hit_rate %.4f" (cache_hit_rate t);
  histo "topk_cache_hit_age_us" t.cache_hit_age_us;
  line "topk_traces_stored %d" (Topk_trace.Trace.Store.length ());
  line "topk_traces_total %d" (Topk_trace.Trace.Store.total ());
  Buffer.contents buf
