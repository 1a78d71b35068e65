(* E20 (extension): replication — read capacity vs replica count, and
   the shipping window's effect on replica lag under a lossy fabric.

   lib/repl ships the ingestion WAL to read replicas over a
   fault-injectable transport (lib/repl/transport).  Two claims:

   - read capacity scales with the replica count: each replica answers
     from its own copy of the Theorem-2 structure at the same per-read
     cost, so aggregate throughput is replicas x a constant — the
     router spreads tokens round-robin and the per-read cost stays
     flat as the group grows;
   - the go-back-N shipping window trades retransmission overhead
     against replica lag: a one-frame window serializes shipping
     behind each ack round-trip (lag grows with the write rate), a
     wide window keeps replicas within a few frames of the head even
     under drop + reorder + delay, at the price of more duplicate
     frames when a loss rewinds the cursor. *)

module Clock = Topk_util.Clock
module Rng = Topk_util.Rng
module I = Topk_interval.Interval
module Inst = Topk_interval.Instances
module G = Topk_repl.Group.Make (Inst.Topk_t2)
module Transport = Topk_repl.Transport
module Metrics = Topk_service.Metrics

let random_interval rng id =
  let lo = Rng.uniform rng in
  let len = Rng.float rng (1. -. lo) in
  I.make ~id ~lo ~hi:(lo +. len)
    ~weight:(float_of_int id +. Rng.float rng 0.4)
    ()

(* Stream [updates] inserts through the group, pumping as we go. *)
let stream rng g ~first_id ~updates =
  let lagged = ref 0 and max_lag = ref 0 in
  for i = 1 to updates do
    let e = random_interval rng (first_id + i) in
    if not (G.synced (G.insert g e)) then incr lagged;
    if G.lag g > !max_lag then max_lag := G.lag g
  done;
  (!lagged, !max_lag)

let run () =
  Table.section
    "E20: replication (WAL shipping to read replicas over a lossy fabric)";

  (* Read capacity vs replica count.  Clean transport: the cost under
     faults is E20b's subject. *)
  let n = if !Workloads.quick then 4096 else 16_384 in
  let updates = n / 8 in
  let queries = Workloads.stab_queries ~seed:20 ~n:400 in
  let rows = ref [] in
  List.iter
    (fun replicas ->
      let rng = Rng.create (200_000 + replicas) in
      Topk_em.Config.with_model Workloads.em_model (fun () ->
          let base = Array.init n (fun i -> random_interval rng (i + 1)) in
          let metrics = Metrics.create () in
          let g =
            G.create ~params:(Inst.params ()) ~buffer_cap:256 ~metrics
              ~name:"e20" ~replicas base
          in
          let _lagged, _max_lag = stream rng g ~first_id:n ~updates in
          assert (G.settle g);
          let q_ios =
            Workloads.per_query_ios
              (fun q -> ignore (G.read g q ~k:10))
              queries
          in
          let t0 = Clock.now () in
          Array.iter (fun q -> ignore (G.read g q ~k:10)) queries;
          let us = (Clock.now () -. t0) *. 1e6 /. float_of_int (Array.length queries) in
          let shipped = Metrics.Counter.get metrics.Metrics.repl_frames_shipped in
          rows :=
            [ Table.fi replicas;
              Table.ff ~d:1 us;
              Table.ff ~d:1 q_ios;
              Table.ff ~d:0 (float_of_int replicas *. 1e6 /. us);
              Table.fi shipped ]
            :: !rows))
    [ 1; 2; 4; 8 ];
  Table.print
    ~title:
      (Printf.sprintf
         "Read capacity vs replica count (n = %d, %d updates shipped, \
          k = 10, clean transport)"
         n updates)
    ~header:
      [ "replicas"; "us/read"; "read ios"; "agg reads/s"; "frames shipped" ]
    (List.rev !rows);
  Table.note
    "Claim: per-read cost is flat in the replica count (each replica \
     answers from its own structure), so aggregate capacity scales \
     linearly; shipping cost scales with replicas x updates.";

  (* The shipping window: lag vs retransmission overhead on a lossy,
     reordering, delaying fabric.  Asynchronous writes (quorum 0) with
     one explicit fabric tick per write, so the fabric advances at
     exactly the write rate and lag is set by how much the window
     ships per tick.  Retention covers the whole stream — catch-up
     must happen by shipping, never by snapshot install. *)
  let n = if !Workloads.quick then 2048 else 8192 in
  let updates = 600 in
  let rows = ref [] in
  List.iter
    (fun window ->
      let rng = Rng.create (201_000 + window) in
      Topk_em.Config.with_model Workloads.em_model (fun () ->
          let base = Array.init n (fun i -> random_interval rng (i + 1)) in
          let metrics = Metrics.create () in
          (* Pure loss, deterministic one-tick delivery: delay-induced
             reordering would discard-and-rto on every gap regardless
             of the window, hiding the knob under test. *)
          let plan = Transport.plan ~drop:0.05 ~seed:(202_000 + window) () in
          let g =
            G.create ~params:(Inst.params ()) ~buffer_cap:256
              ~retain:(2 * updates) ~window ~plan ~metrics ~max_pump:1
              ~quorum:0 ~name:"e20b" ~replicas:3 base
          in
          let max_lag = ref 0 in
          for i = 1 to updates do
            ignore (G.insert g (random_interval rng (n + i)));
            G.step g;
            if G.lag g > !max_lag then max_lag := G.lag g
          done;
          let end_lag = G.lag g in
          let t0 = Transport.now (G.transport g) in
          assert (G.settle ~max_ticks:100_000 g);
          let settle_ticks = Transport.now (G.transport g) - t0 in
          let shipped = Metrics.Counter.get metrics.Metrics.repl_frames_shipped in
          let dropped = Metrics.Counter.get metrics.Metrics.repl_frames_dropped in
          rows :=
            [ Table.fi window;
              Table.fi !max_lag;
              Table.fi end_lag;
              Table.fi settle_ticks;
              Table.fi shipped;
              Table.ff ~d:2
                (float_of_int shipped /. float_of_int (3 * updates));
              Table.fi dropped ]
            :: !rows))
    [ 1; 2; 4; 8; 16 ];
  Table.print
    ~title:
      (Printf.sprintf
         "E20b: shipping window vs replica lag (n = %d, %d updates at one \
          fabric tick per write, 3 replicas, drop 0.05)"
         n updates)
    ~header:
      [ "window"; "max lag"; "end lag"; "settle ticks"; "shipped";
        "ship/op"; "dropped" ]
    (List.rev !rows);
  Table.note
    "Claim: lag falls as the window widens (more frames in flight per \
     ack round-trip) while go-back-N retransmission overhead (ship/op \
     over the 3x-updates floor) rises mildly under loss."
