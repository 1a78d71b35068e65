(* Tests for the live ingestion subsystem: the bounded update log, the
   refcounted epoch manager, and the Bentley–Saxe ingest wrapper
   (sealing, background merges on the pool, tombstone purge, snapshot
   isolation, registry integration). *)

module Rng = Topk_util.Rng
module Gen = Topk_util.Gen
module I = Topk_interval.Interval
module Inst = Topk_interval.Instances
module Log = Topk_ingest.Update_log
module Epoch = Topk_ingest.Epoch
module Ing = Topk_ingest.Ingest.Make (Inst.Topk_t2)
module Executor = Topk_service.Executor
module Registry = Topk_service.Registry
module Metrics = Topk_service.Metrics
module Stats = Topk_em.Stats

let iparams = Inst.params ()

let ids elems = List.map (fun (e : I.t) -> e.I.id) elems

(* The reference model: a plain list of live intervals, newest wins. *)
module Model = struct
  type t = { mutable live : I.t list }

  let create () = { live = [] }

  let insert t (e : I.t) =
    t.live <- e :: List.filter (fun (x : I.t) -> x.I.id <> e.I.id) t.live

  let delete t (e : I.t) =
    t.live <- List.filter (fun (x : I.t) -> x.I.id <> e.I.id) t.live

  let top_k t q ~k =
    Topk_util.Select.top_k ~cmp:I.compare_weight k
      (List.filter (fun e -> I.contains e q) t.live)
end

let random_interval rng id =
  let lo = Rng.uniform rng in
  let hi = lo +. Rng.float rng (1.2 -. lo) in
  I.make ~id ~lo ~hi:(min 1.2 hi)
    ~weight:(float_of_int id +. Rng.float rng 0.3)
    ()

(* ------------------------------------------------------------------ *)
(* Update_log                                                          *)

let test_log_basics () =
  (try
     ignore (Log.create ~cap:0 : int Log.t);
     Alcotest.fail "cap 0 accepted"
   with Invalid_argument _ -> ());
  let l : int Log.t = Log.create ~cap:3 in
  Alcotest.(check int) "cap" 3 (Log.cap l);
  Alcotest.(check bool) "empty" true (Log.is_empty l);
  Log.append l { Log.seq = 1; op = Log.Insert 10 };
  Log.append l { Log.seq = 2; op = Log.Delete 10 };
  Alcotest.(check int) "length" 2 (Log.length l);
  Log.append l { Log.seq = 3; op = Log.Insert 11 };
  Alcotest.(check bool) "full" true (Log.is_full l);
  (try
     Log.append l { Log.seq = 4; op = Log.Insert 12 };
     Alcotest.fail "append past cap accepted"
   with Invalid_argument _ -> ());
  (* A captured view survives a reset: the backing array is detached,
     never reused. *)
  let arr, len = Log.view l in
  Log.reset l;
  Alcotest.(check int) "reset empties" 0 (Log.length l);
  Alcotest.(check int) "view keeps its prefix" 3 len;
  (match arr.(0).Log.op with
  | Log.Insert 10 -> ()
  | _ -> Alcotest.fail "detached view mutated");
  Log.append l { Log.seq = 5; op = Log.Insert 13 };
  (match arr.(0).Log.op with
  | Log.Insert 10 -> ()
  | _ -> Alcotest.fail "append after reset reached the detached view")

let test_log_replay () =
  let entries =
    [|
      { Log.seq = 1; op = Log.Insert 7 };
      { Log.seq = 2; op = Log.Insert 8 };
      { Log.seq = 3; op = Log.Delete 7 };
      { Log.seq = 4; op = Log.Insert 7 };
      { Log.seq = 5; op = Log.Delete 8 };
    |]
  in
  (* Latest op per id wins over the whole prefix... *)
  let latest = Log.replay ~id:(fun e -> e) entries 5 in
  Alcotest.(check bool) "7 re-inserted" true
    (Hashtbl.find_opt latest 7 = Some (Some 7));
  Alcotest.(check bool) "8 deleted" true
    (Hashtbl.find_opt latest 8 = Some None);
  (* ...and a shorter prefix replays only what it saw. *)
  let prefix = Log.replay ~id:(fun e -> e) entries 3 in
  Alcotest.(check bool) "7 dead at len 3" true
    (Hashtbl.find_opt prefix 7 = Some None);
  Alcotest.(check bool) "8 live at len 3" true
    (Hashtbl.find_opt prefix 8 = Some (Some 8))

(* ------------------------------------------------------------------ *)
(* Epoch                                                               *)

let test_epoch_refcounts () =
  let ep = Epoch.create "a" in
  Alcotest.(check int) "epoch 0" 0 (Epoch.current_id ep);
  let p = Epoch.pin ep in
  Alcotest.(check int) "published id" 1
    (Epoch.publish ep (fun v -> v ^ "b"));
  Alcotest.(check string) "current advanced" "ab" (Epoch.current ep);
  Alcotest.(check string) "pin is stable" "a" (Epoch.value p);
  Alcotest.(check int) "pin id" 0 (Epoch.pin_id p);
  Alcotest.(check int) "lag counts the pinned reader" 1 (Epoch.lag ep);
  Alcotest.(check int) "retired but held" 1 (Epoch.retired_count ep);
  Epoch.unpin p;
  Epoch.unpin p (* idempotent *);
  Alcotest.(check int) "reclaimed" 0 (Epoch.retired_count ep);
  Alcotest.(check int) "no readers, no lag" 0 (Epoch.lag ep);
  Alcotest.(check (option int)) "nothing pinned" None (Epoch.oldest_pinned ep);
  Alcotest.(check string) "with_pin" "ab" (Epoch.with_pin ep (fun v -> v))

(* Four domains race the epoch manager: one writer publishing versions
   (the version payload always equals its epoch id), two readers
   hammering pin/unpin, one monitor sampling the gauges.  A pinned
   epoch must never be reclaimed out from under its reader — observed
   as [value p = pin_id p] holding for the whole pin — and
   [oldest_pinned]/[current_id] must be monotone under the races. *)
let test_epoch_domain_races () =
  let ep = Epoch.create 0 in
  let rounds = 3000 in
  let stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        for _ = 1 to rounds do
          ignore (Epoch.publish ep (fun v -> v + 1) : int)
        done;
        Atomic.set stop true)
  in
  let reader () =
    Domain.spawn (fun () ->
        let bad = ref 0 in
        while not (Atomic.get stop) do
          let p = Epoch.pin ep in
          if Epoch.value p <> Epoch.pin_id p then incr bad;
          (* Hold the pin across a few publishes, then re-check: a
             reclaim-while-pinned would have dropped this version. *)
          for _ = 1 to 5 do
            Domain.cpu_relax ()
          done;
          if Epoch.value p <> Epoch.pin_id p then incr bad;
          Epoch.unpin p
        done;
        !bad)
  in
  let monitor =
    Domain.spawn (fun () ->
        let bad = ref 0 in
        let last_oldest = ref 0 and last_current = ref 0 in
        while not (Atomic.get stop) do
          let c = Epoch.current_id ep in
          if c < !last_current then incr bad;
          last_current := max !last_current c;
          (match Epoch.oldest_pinned ep with
          | Some o ->
              if o < !last_oldest then incr bad;
              if o > Epoch.current_id ep then incr bad;
              last_oldest := max !last_oldest o
          | None -> ());
          if Epoch.lag ep < 0 then incr bad
        done;
        !bad)
  in
  let r1 = reader () and r2 = reader () in
  Domain.join writer;
  Alcotest.(check int) "reader 1 saw no torn pins" 0 (Domain.join r1);
  Alcotest.(check int) "reader 2 saw no torn pins" 0 (Domain.join r2);
  Alcotest.(check int) "monitor saw monotone gauges" 0 (Domain.join monitor);
  Alcotest.(check int) "all epochs published" rounds (Epoch.current_id ep);
  (* Every reader unpinned: everything superseded was reclaimed. *)
  Alcotest.(check int) "nothing retired" 0 (Epoch.retired_count ep);
  Alcotest.(check int) "no lag" 0 (Epoch.lag ep);
  Alcotest.(check (option int)) "nothing pinned" None (Epoch.oldest_pinned ep)

(* ------------------------------------------------------------------ *)
(* Ingest, inline mode (no pool): exactness through seals and merges   *)

let check_against_model ing model rng =
  let qs = Gen.stab_queries rng ~n:8 in
  Array.iter
    (fun q ->
      List.iter
        (fun k ->
          Alcotest.(check (list int))
            "ingest top-k = model"
            (ids (Model.top_k model q ~k))
            (ids (Ing.query ing q ~k)))
        [ 1; 5; 40 ])
    qs

let test_ingest_trace_inline () =
  let rng = Rng.create 401 in
  let base = Array.init 60 (fun i -> random_interval rng (i + 1)) in
  (* A tiny buffer and fanout 2 force many seals and cascaded merges. *)
  let ing = Ing.create ~params:iparams ~buffer_cap:8 ~fanout:2 base in
  let model = Model.create () in
  Array.iter (Model.insert model) base;
  Alcotest.(check int) "base live" 60 (Ing.size ing);
  let next_id = ref 60 in
  for op = 1 to 400 do
    if List.length model.Model.live < 10 || Rng.bernoulli rng 0.6 then begin
      incr next_id;
      let e = random_interval rng !next_id in
      Model.insert model e;
      Ing.insert ing e
    end
    else begin
      let live = Array.of_list model.Model.live in
      let e = live.(Rng.int rng (Array.length live)) in
      Model.delete model e;
      Ing.delete ing e
    end;
    if op mod 50 = 0 then begin
      check_against_model ing model rng;
      Alcotest.(check int) "live tracks model"
        (List.length model.Model.live) (Ing.size ing)
    end
  done;
  Alcotest.(check bool) "epochs advanced" true (Ing.epoch ing > 0);
  Alcotest.(check bool) "several runs" true (Ing.run_count ing > 1);
  Alcotest.(check bool) "k <= 0 answers []" true (Ing.query ing 0.5 ~k:0 = []);
  (* Freeze: remaining buffer sealed, compaction settles, answers keep
     agreeing; further writes are refused but reads still work. *)
  Ing.freeze ing;
  Ing.freeze ing (* idempotent *);
  Alcotest.(check bool) "frozen" true (Ing.frozen ing);
  Alcotest.(check int) "log drained by freeze" 0 (Ing.log_length ing);
  check_against_model ing model rng;
  (try
     Ing.insert ing (random_interval rng 99999);
     Alcotest.fail "insert after freeze accepted"
   with Invalid_argument _ -> ());
  Alcotest.(check bool) "not wedged" false (Ing.wedged ing)

let test_ingest_delete_to_empty_and_purge () =
  let rng = Rng.create 409 in
  let base = Array.init 32 (fun i -> random_interval rng (i + 1)) in
  let ing = Ing.create ~params:iparams ~buffer_cap:4 ~fanout:2 base in
  Array.iter (fun e -> Ing.delete ing e) base;
  Alcotest.(check int) "all deleted" 0 (Ing.size ing);
  Ing.freeze ing;
  Array.iter
    (fun q ->
      Alcotest.(check (list int)) "empty answers" [] (ids (Ing.query ing q ~k:10)))
    (Gen.stab_queries rng ~n:10);
  (* Compaction reached the base run, so the tombstones purged and the
     level set collapsed instead of accreting empty runs. *)
  Alcotest.(check bool)
    (Printf.sprintf "runs collapsed (got %d)" (Ing.run_count ing))
    true
    (Ing.run_count ing <= 4)

let test_ingest_reinsert_tombstoned_id () =
  let rng = Rng.create 411 in
  let base = Array.init 10 (fun i -> random_interval rng (i + 1)) in
  (* cap 2: the delete and the re-insert land in different runs. *)
  let ing = Ing.create ~params:iparams ~buffer_cap:2 ~fanout:2 base in
  let victim = base.(4) in
  Ing.delete ing victim;
  Ing.insert ing (random_interval rng 100);
  Ing.insert ing (random_interval rng 101);
  (* Re-insert the tombstoned id as a full-span heavy interval: it must
     come back (newest wins over its own tombstone). *)
  let revived =
    I.make ~id:victim.I.id ~lo:0.0 ~hi:1.2 ~weight:1e6 ()
  in
  Ing.insert ing revived;
  Alcotest.(check int) "live count back" 12 (Ing.size ing);
  Array.iter
    (fun q ->
      match ids (Ing.query ing q ~k:1) with
      | [ top ] ->
          Alcotest.(check int) "revived id on top" victim.I.id top
      | other ->
          Alcotest.failf "expected one answer, got %d" (List.length other))
    (Gen.stab_queries rng ~n:5);
  Ing.freeze ing;
  Alcotest.(check int) "still on top after compaction" victim.I.id
    (List.hd (ids (Ing.query ing 0.5 ~k:1)))

let test_ingest_snapshot_isolation () =
  let rng = Rng.create 419 in
  let base = Array.init 50 (fun i -> random_interval rng (i + 1)) in
  let ing = Ing.create ~params:iparams ~buffer_cap:8 ~fanout:2 base in
  (* Leave a few ops unsealed so the pinned view spans runs + log. *)
  for i = 51 to 53 do
    Ing.insert ing (random_interval rng i)
  done;
  Ing.delete ing base.(0);
  let w = Ing.pin ing in
  let frozen_model = Model.create () in
  List.iter (Model.insert frozen_model) (Ing.view_live w);
  (* Mutate heavily after the pin: seals and merges publish new epochs
     underneath the pinned reader. *)
  for i = 54 to 120 do
    Ing.insert ing (random_interval rng i)
  done;
  Array.iter (fun e -> Ing.delete ing e) (Array.sub base 1 20);
  Alcotest.(check bool) "epoch advanced past the pin" true
    (Ing.epoch ing > Ing.view_epoch w);
  Alcotest.(check bool) "reader lags" true (Ing.epoch_lag ing > 0);
  (* The pinned view still answers exactly as of pin time... *)
  let qs = Gen.stab_queries rng ~n:8 in
  Array.iter
    (fun q ->
      List.iter
        (fun k ->
          Alcotest.(check (list int))
            "pinned view is stable"
            (ids (Model.top_k frozen_model q ~k))
            (ids (Ing.query_view w q ~k)))
        [ 1; 5; 30 ])
    qs;
  (* ...while fresh queries see the new state: the deleted base
     elements are gone from a full sweep, the new ids present. *)
  let w2 = Ing.pin ing in
  let fresh = Ing.view_live w2 in
  Ing.unpin w2;
  let fresh_ids = List.sort_uniq Int.compare (List.map (fun (e : I.t) -> e.I.id) fresh) in
  Alcotest.(check bool) "fresh state dropped a deleted base elem" false
    (List.mem base.(1).I.id fresh_ids);
  Alcotest.(check bool) "fresh state holds a post-pin insert" true
    (List.mem 120 fresh_ids);
  Ing.unpin w;
  Ing.unpin w (* idempotent *);
  Alcotest.(check int) "lag clears on unpin" 0 (Ing.epoch_lag ing)

(* ------------------------------------------------------------------ *)
(* Ingest on the worker pool: background merges, crash, accounting     *)

let test_ingest_pool_with_crash () =
  let rng = Rng.create 421 in
  Stats.reset_all ();
  let pool = Executor.create ~workers:4 () in
  Fun.protect
    ~finally:(fun () -> Executor.shutdown pool)
    (fun () ->
      let base = Array.init 100 (fun i -> random_interval rng (i + 1)) in
      let ing =
        Ing.create ~params:iparams ~buffer_cap:16 ~fanout:2 ~pool base
      in
      let model = Model.create () in
      Array.iter (Model.insert model) base;
      let next_id = ref 100 in
      for op = 1 to 2000 do
        if List.length model.Model.live < 20 || Rng.bernoulli rng 0.65 then begin
          incr next_id;
          let e = random_interval rng !next_id in
          Model.insert model e;
          Ing.insert ing e
        end
        else begin
          let live = Array.of_list model.Model.live in
          let e = live.(Rng.int rng (Array.length live)) in
          Model.delete model e;
          Ing.delete ing e
        end;
        (* Kill merge workers mid-stream: the supervisor respawns them
           and compaction keeps going. *)
        if op = 700 then Executor.inject_worker_crash pool 0;
        if op = 1400 then Executor.inject_worker_crash pool 1;
        (* Updates are synchronous and merges only reorganise, so any
           interleaved query must agree with the model exactly. *)
        if op mod 250 = 0 then check_against_model ing model rng
      done;
      Ing.freeze ing;
      Alcotest.(check bool) "survived the crashes" false (Ing.wedged ing);
      check_against_model ing model rng;
      Alcotest.(check int) "live = model" (List.length model.Model.live)
        (Ing.size ing);
      let m = Executor.metrics pool in
      Alcotest.(check int) "every update counted" 2000
        (Metrics.Counter.get m.Metrics.updates);
      Alcotest.(check bool) "seals recorded" true
        (Metrics.Counter.get m.Metrics.seals > 0);
      Alcotest.(check bool) "merges recorded" true
        (Metrics.Counter.get m.Metrics.merges > 0);
      Alcotest.(check bool) "tombstones recorded" true
        (Metrics.Counter.get m.Metrics.tombstones > 0);
      Alcotest.(check bool) "merge latency observed" true
        (Metrics.Histogram.count m.Metrics.merge_latency_us > 0);
      Executor.drain pool;
      (* Background merge I/O was charged to the worker domains. *)
      let agg = Executor.aggregate_stats pool in
      Alcotest.(check bool) "merge I/O on the workers" true
        (agg.Stats.ios > 0))

(* ------------------------------------------------------------------ *)
(* Registry integration                                                *)

let test_registry_updates () =
  let rng = Rng.create 431 in
  let registry = Registry.create () in
  let base = Array.init 20 (fun i -> random_interval rng (i + 1)) in
  let ing = Ing.create ~params:iparams ~buffer_cap:4 base in
  let h = Ing.register registry ~name:"live" ing in
  Alcotest.(check bool) "updatable" true (Registry.updatable h);
  let e = random_interval rng 1000 in
  Registry.insert h e;
  Alcotest.(check int) "insert through the handle" 21 (Ing.size ing);
  Registry.delete h e;
  Alcotest.(check int) "delete through the handle" 20 (Ing.size ing);
  Registry.freeze h;
  Alcotest.(check bool) "freeze through the handle" true (Ing.frozen ing);
  (* A static registration stays static. *)
  let s = Inst.Topk_t2.build ~params:iparams base in
  let hs =
    Registry.register registry ~name:"static" (module Inst.Topk_t2) s
  in
  Alcotest.(check bool) "static" false (Registry.updatable hs);
  List.iter
    (fun f ->
      try
        f ();
        Alcotest.fail "write on a static instance accepted"
      with Invalid_argument _ -> ())
    [ (fun () -> Registry.insert hs e);
      (fun () -> Registry.delete hs e);
      (fun () -> Registry.freeze hs) ]

let () =
  Alcotest.run "topk_ingest"
    [
      ( "update_log",
        [
          Alcotest.test_case "basics" `Quick test_log_basics;
          Alcotest.test_case "replay" `Quick test_log_replay;
        ] );
      ( "epoch",
        [
          Alcotest.test_case "refcounts" `Quick test_epoch_refcounts;
          Alcotest.test_case "4-domain pin/unpin races" `Slow
            test_epoch_domain_races;
        ] );
      ( "ingest",
        [
          Alcotest.test_case "inline trace" `Slow test_ingest_trace_inline;
          Alcotest.test_case "delete to empty, purge" `Quick
            test_ingest_delete_to_empty_and_purge;
          Alcotest.test_case "re-insert tombstoned id" `Quick
            test_ingest_reinsert_tombstoned_id;
          Alcotest.test_case "snapshot isolation" `Quick
            test_ingest_snapshot_isolation;
          Alcotest.test_case "pool + crash" `Slow test_ingest_pool_with_crash;
        ] );
      ( "integration",
        [
          Alcotest.test_case "registry updates" `Quick test_registry_updates;
        ] );
    ]
