(* E18 (extension): the observability tax — per-query tracing on the
   E17 sharded workload.

   The tracing contract (lib/trace) promises two things when spans are
   recording: zero *charged* I/Os added to any query (instrumentation
   never calls Stats.charge), and a small wall-clock overhead (span
   open/close is a few allocations plus two Stats snapshots on the
   recording domain).  This experiment measures both on the sharded
   planner workload of E17 — the most span-dense path in the repo (one
   root + bounds phase + one span per visited shard + prune events +
   Theorem-2 ladder rounds underneath).

   Wall-clock is measured as the {e median of paired differences}:
   each rep times one pass per configuration in random order, so clock
   drift, frequency scaling and cache warming — which dwarf the effect
   being measured — cancel within a pair instead of biasing whichever
   configuration runs second.

   Two enabled configurations are reported separately because they tax
   different subsystems:
   - [on]          — recording, tiny store (capacity 8).  Isolates the
     span open/close path itself; this is the number the < 5% target
     applies to.
   - [on+retain]   — recording, production store (capacity 512).
     Retained traces survive many minor collections, get promoted, and
     become major-heap garbage when the ring overwrites them; that GC
     churn is a cost of {e keeping} traces, not of recording them, and
     scales with store capacity.  (Paired too, but incremental major
     slices can smear across neighbouring passes, so read it as an
     estimate.) *)

module Clock = Topk_util.Clock
module Rng = Topk_util.Rng
module Gen = Topk_util.Gen
module Interval = Topk_interval.Interval
module Inst = Topk_interval.Instances
module SS = Topk_shard.Shard_set.Make (Inst.Topk_t2) (Topk_interval.Slab_max)
module Planner = Topk_shard.Planner.Make (SS)
module Partitioner = Topk_shard.Partitioner
module P = Topk_interval.Problem
module Tr = Topk_trace.Trace

let random_intervals ~seed ~n =
  let rng = Rng.create seed in
  Interval.of_spans rng (Gen.intervals rng ~shape:Gen.Mixed_intervals ~n)

let random_queries ~seed ~n =
  let rng = Rng.create seed in
  Gen.stab_queries rng ~n

let time_batch f =
  let t0 = Clock.now () in
  f ();
  Clock.now () -. t0

let median l =
  let s = List.sort Float.compare l in
  List.nth s (List.length s / 2)

(* Median baseline and median paired (on - off) difference, seconds
   per pass.  [set_on] flips tracing on however the configuration
   wants; the store capacity is set (and prefilled) by the caller so
   pairs only toggle the enabled flag. *)
let paired_overhead ~reps ~coin ~set_on batch =
  set_on ();
  ignore (time_batch batch);
  Tr.disable ();
  ignore (time_batch batch);
  let offs = ref [] and diffs = ref [] in
  for _ = 1 to reps do
    let on, off =
      if Random.State.bool coin then begin
        set_on ();
        let a = time_batch batch in
        Tr.disable ();
        (a, time_batch batch)
      end
      else begin
        Tr.disable ();
        let b = time_batch batch in
        set_on ();
        (time_batch batch, b)
      end
    in
    offs := off :: !offs;
    diffs := (on -. off) :: !diffs
  done;
  Tr.disable ();
  (median !offs, median !diffs)

let run () =
  Table.section "E18: tracing overhead on the sharded workload";
  let n = if !Workloads.quick then 16_384 else 100_000 in
  let shards = 8 in
  let k = 1000 in
  let nq = if !Workloads.quick then 50 else 100 in
  let reps = if !Workloads.quick then 21 else 25 in
  let elems = random_intervals ~seed:180_001 ~n in
  let queries = random_queries ~seed:180_002 ~n:nq in
  let params = Inst.params () in
  let set =
    Topk_em.Config.with_model Workloads.em_model (fun () ->
        SS.of_elems ~params
          ~strategy:(Partitioner.Range P.weight)
          ~shards elems)
  in
  (* Each query runs under a root span, as it would in the serving
     layer; with tracing disabled the root costs one Atomic.get. *)
  let traced_query q =
    let (_ : int), (_ : Tr.t option) =
      Tr.with_root "e18.query"
        ~attrs:[ ("instance", Tr.Str "e18"); ("k", Tr.Int k) ]
        (fun () -> List.length (Planner.query set q ~k))
    in
    ()
  in
  let batch () = Array.iter traced_query queries in
  let ios_of () = Workloads.per_query_ios traced_query queries in
  (* Charged I/Os must be identical with tracing on. *)
  Tr.disable ();
  let ios_off = ios_of () in
  Tr.enable ();
  Tr.Store.set_capacity 8;
  let ios_on = ios_of () in
  Tr.disable ();
  let coin = Random.State.make [| 180_003 |] in
  (* (a) recording overhead: tiny store. *)
  let t_off, d_record =
    paired_overhead ~reps ~coin ~set_on:Tr.enable batch
  in
  (* (b) retention overhead: production-sized store, prefilled to
     steady state so every pass overwrites as it records. *)
  Tr.enable ();
  Tr.Store.set_capacity 512;
  for _ = 1 to 512 / nq do
    ignore (time_batch batch)
  done;
  Tr.disable ();
  let t_off2, d_retain =
    paired_overhead ~reps ~coin ~set_on:Tr.enable batch
  in
  (* Span volume, from the freshly filled store. *)
  Tr.enable ();
  ignore (time_batch batch);
  let spans_per_query =
    let traces = Tr.Store.recent ~limit:nq () in
    let total = List.fold_left (fun a t -> a + Tr.span_count t) 0 traces in
    float_of_int total /. float_of_int (max 1 (List.length traces))
  in
  Tr.disable ();
  let upq t = t /. float_of_int nq *. 1e6 in
  let pct d base = d /. base *. 100. in
  let d_ios = ios_on -. ios_off in
  let record_pct = pct d_record t_off in
  let retain_pct = pct d_retain t_off2 in
  Table.print
    ~title:
      (Printf.sprintf
         "Per-query cost of tracing, n=%d, S=%d, k=%d, %d queries (median \
          of %d paired passes)"
         n shards k nq reps)
    ~header:[ "config"; "I/Os"; "us/query"; "d-I/Os"; "overhead"; "spans/q" ]
    [
      [ "off"; Table.ff ~d:1 ios_off; Table.ff ~d:1 (upq t_off); "-"; "-";
        "-" ];
      [ "on";
        Table.ff ~d:1 ios_on;
        Table.ff ~d:1 (upq (t_off +. d_record));
        Table.ff ~d:1 d_ios;
        Printf.sprintf "%.2f%%" record_pct;
        Table.ff ~d:1 spans_per_query ];
      [ "on+retain";
        Table.ff ~d:1 ios_on;
        Table.ff ~d:1 (upq (t_off2 +. d_retain));
        Table.ff ~d:1 d_ios;
        Printf.sprintf "%.2f%%" retain_pct;
        Table.ff ~d:1 spans_per_query ];
    ];
  Printf.printf
    "e18 verdict: extra charged I/Os = %.1f (must be 0), recording \
     overhead = %.2f%% (target < 5%%) -> %s [store retention adds %.2f%% \
     at capacity 512]\n"
    d_ios record_pct
    (if d_ios = 0. && record_pct < 5. then "PASS"
     else if d_ios = 0. then "PASS-ios/WARN-clock (noisy box?)"
     else "FAIL")
    retain_pct;
  Table.note
    "Tracing is charged in time, never in I/Os: spans snapshot the \
     Stats counters at open/close but never call charge_*, so the EM \
     cost of every query is bit-identical with tracing on.  Recording \
     stays under the 5% target because the traced operations (shard \
     legs, ladder rounds) are orders of magnitude coarser than a span \
     open/close (~200ns).  Keeping completed traces is the larger tax: \
     a deep ring buffer promotes every trace to the major heap and \
     frees it one full ring later, so GC churn — not span bookkeeping \
     — is what to budget when sizing Trace.Store in production."
