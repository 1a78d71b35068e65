(* E19 (extension): the live ingestion wrapper — amortized update cost
   and the read-side tax of log + runs.

   The ingest wrapper (lib/ingest) makes the static Theorem 2 structure
   updatable with the classic LSM / Bentley–Saxe recipe: a bounded
   update log, sealed into level-0 runs, merged geometrically.  Two
   claims to validate:

   - amortized update cost is O((log n)/B) I/Os — each element is
     rewritten once per level it descends through, and there are
     O(log n) levels;
   - query cost degrades by at most the run count (each run answers
     with the inner Theorem-2 bound, plus one log scan), and the
     [buffer_cap] knob trades write amplification against that
     read-side fanout.

   Merges run inline (no pool) so every I/O lands on this domain and
   the per-update figure includes compaction — the number the
   Dynamic cost model certifies. *)

module Clock = Topk_util.Clock
module Rng = Topk_util.Rng
module I = Topk_interval.Interval
module Inst = Topk_interval.Instances
module Ing = Topk_ingest.Ingest.Make (Inst.Topk_t2)
module Stats = Topk_em.Stats

let random_interval rng id =
  let lo = Rng.uniform rng in
  let len = Rng.float rng (1. -. lo) in
  I.make ~id ~lo ~hi:(lo +. len)
    ~weight:(float_of_int id +. Rng.float rng 0.4)
    ()

(* Stream [updates] mixed ops (2/3 insert, 1/3 delete-a-live-id) and
   return (us/op, ios/op) with compaction included. *)
let churn rng t ~first_id ~updates =
  let live = ref [] and n_live = ref 0 in
  let t0 = Clock.now () in
  let (), cost =
    Stats.measure (fun () ->
        for i = 1 to updates do
          if i mod 3 = 0 && !n_live > 0 then begin
            match !live with
            | v :: rest ->
                live := rest;
                decr n_live;
                Ing.delete t v
            | [] -> ()
          end
          else begin
            let e = random_interval rng (first_id + i) in
            live := e :: !live;
            incr n_live;
            Ing.insert t e
          end
        done)
  in
  let us = (Clock.now () -. t0) *. 1e6 /. float_of_int updates in
  (us, float_of_int cost.Stats.ios /. float_of_int updates)

let run () =
  Table.section
    "E19: live ingestion (update log + geometric runs over Theorem 2)";
  let rows = ref [] in
  List.iter
    (fun n ->
      let rng = Rng.create (190_000 + n) in
      Topk_em.Config.with_model Workloads.em_model (fun () ->
          let base = Array.init n (fun i -> random_interval rng (i + 1)) in
          let t = Ing.create ~params:(Inst.params ()) ~buffer_cap:256 base in
          let us, ios = churn rng t ~first_id:n ~updates:n in
          let queries = Workloads.stab_queries ~seed:n ~n:50 in
          let q_ios =
            Workloads.per_query_ios
              (fun q -> ignore (Ing.query t q ~k:10))
              queries
          in
          rows :=
            [ Table.fi n;
              Table.ff ~d:1 us;
              Table.ff ~d:2 ios;
              Table.ff ~d:1 q_ios;
              Table.fi (Ing.run_count t);
              Table.fi (Ing.epoch t);
              Table.fi (Ing.size t) ]
            :: !rows))
    (Workloads.sizes [ 2048; 8192; 32_768 ]);
  Table.print
    ~title:
      "Amortized update cost (wall-clock and I/Os, compaction included) \
       and mid-stream query I/Os (k = 10, buffer_cap = 256)"
    ~header:
      [ "n"; "update us/op"; "update ios/op"; "query ios"; "runs";
        "epoch"; "size" ]
    (List.rev !rows);
  Table.note
    "Claim: update ios/op grows like (log n)/B (each element is \
     rewritten once per level), query ios like runs x the static E5 \
     cost plus one log scan.";

  (* The LSM knob: a smaller buffer seals more often (more runs to
     read), a bigger one amortizes better but scans a longer log. *)
  let n = if !Workloads.quick then 4096 else 16_384 in
  let rows = ref [] in
  List.iter
    (fun cap ->
      let rng = Rng.create (191_000 + cap) in
      Topk_em.Config.with_model Workloads.em_model (fun () ->
          let base = Array.init n (fun i -> random_interval rng (i + 1)) in
          let t = Ing.create ~params:(Inst.params ()) ~buffer_cap:cap base in
          let _us, ios = churn rng t ~first_id:n ~updates:n in
          let queries = Workloads.stab_queries ~seed:cap ~n:50 in
          let q_ios =
            Workloads.per_query_ios
              (fun q -> ignore (Ing.query t q ~k:10))
              queries
          in
          rows :=
            [ Table.fi cap;
              Table.ff ~d:2 ios;
              Table.ff ~d:1 q_ios;
              Table.fi (Ing.run_count t);
              Table.fi (Ing.log_length t) ]
            :: !rows))
    [ 64; 256; 1024 ];
  Table.print
    ~title:
      (Printf.sprintf
         "E19b: buffer_cap trades write amplification for read fanout \
          (n = %d, n updates)"
         n)
    ~header:[ "buffer_cap"; "update ios/op"; "query ios"; "runs"; "log len" ]
    (List.rev !rows);
  Table.note
    "Claim: update cost falls and read-side run count rises as the \
     buffer shrinks; both meet the Dynamic certification bound."
