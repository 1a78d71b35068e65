(* Tests for the durable ingestion subsystem: CRC framing, the
   fault-injecting disk layer, WAL segments, snapshots, the manifest,
   the durable store end to end, scrubbing — and the recovery law:
   for seeded random update streams and every swept crash point,
   recovery yields the from-scratch oracle over a prefix of the issued
   updates that contains every Sync-acknowledged one, across two
   different ingest instantiations. *)

module Rng = Topk_util.Rng
module I = Topk_interval.Interval
module IInst = Topk_interval.Instances
module RInst = Topk_range.Instances
module Wp = Topk_range.Wpoint
module Log = Topk_ingest.Update_log
module Frame = Topk_durable.Frame
module Disk = Topk_durable.Disk
module Wal = Topk_durable.Wal
module Snapshot = Topk_durable.Snapshot
module Manifest = Topk_durable.Manifest
module Store = Topk_durable.Store
module Scrub = Topk_durable.Scrub
module Metrics = Topk_service.Metrics
module Executor = Topk_service.Executor

(* ------------------------------------------------------------------ *)
(* Scratch directories                                                 *)

let dir_counter = ref 0

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_dir f =
  incr dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "topk-durable-test-%d-%d" (Unix.getpid ()) !dir_counter)
  in
  Disk.mkdir_p d;
  Fun.protect ~finally:(fun () -> Disk.clear (); rm_rf d) (fun () -> f d)

(* ------------------------------------------------------------------ *)
(* Frame                                                               *)

let test_frame_crc () =
  (* The canonical CRC-32 check value. *)
  Alcotest.(check int32) "crc32(123456789)" 0xCBF43926l
    (Frame.crc32 (Bytes.of_string "123456789"));
  Alcotest.(check int32) "crc32 empty" 0l (Frame.crc32 Bytes.empty);
  Alcotest.(check int32) "windowed = whole"
    (Frame.crc32 (Bytes.of_string "456"))
    (Frame.crc32 ~off:3 ~len:3 (Bytes.of_string "123456789"))

let test_frame_roundtrip () =
  let payloads = [ "hello"; ""; "a longer payload with \000 bytes \255" ] in
  let buf = Buffer.create 64 in
  List.iter (fun p -> Frame.append buf (Bytes.of_string p)) payloads;
  let got, status = Frame.parse_all (Buffer.to_bytes buf) in
  Alcotest.(check (list string)) "payloads survive" payloads
    (List.map Bytes.to_string got);
  Alcotest.(check bool) "clean" true (status = `Clean)

let test_frame_torn_and_corrupt () =
  let b = Frame.frame (Bytes.of_string "abcdef") in
  (* Cut inside the payload: torn. *)
  let torn = Bytes.sub b 0 (Bytes.length b - 2) in
  (match Frame.parse_all torn with
  | [], `Torn 0 -> ()
  | _ -> Alcotest.fail "expected torn at 0");
  (* Cut inside the header: also torn. *)
  (match Frame.parse torn 6 with
  | Frame.Torn -> ()
  | _ -> Alcotest.fail "short header should be torn");
  (* Flip one payload bit: corrupt, and the valid prefix stops there. *)
  let two = Buffer.create 32 in
  Frame.append two (Bytes.of_string "first");
  Frame.append two (Bytes.of_string "second");
  let bytes = Buffer.to_bytes two in
  Bytes.set bytes
    (Bytes.length bytes - 1)
    (Char.chr (Char.code (Bytes.get bytes (Bytes.length bytes - 1)) lxor 1));
  (match Frame.parse_all bytes with
  | [ p ], `Corrupt _ -> Alcotest.(check string) "prefix" "first" (Bytes.to_string p)
  | _ -> Alcotest.fail "expected one valid payload then corrupt");
  (* An absurd length field is corrupt, not a gigantic allocation. *)
  let big = Buffer.create 8 in
  Frame.add_u32 big (Frame.max_payload + 1);
  Frame.add_u32 big 0;
  Buffer.add_string big "xx";
  (match Frame.parse (Buffer.to_bytes big) 0 with
  | Frame.Corrupt -> ()
  | _ -> Alcotest.fail "oversized length accepted")

let test_frame_reader () =
  let b = Buffer.create 32 in
  Frame.add_u32 b 42;
  Frame.add_u64 b 123456789012345;
  Frame.add_string b "payload";
  let r = Frame.reader (Buffer.to_bytes b) in
  Alcotest.(check int) "u32" 42 (Frame.read_u32 r);
  Alcotest.(check int) "u64" 123456789012345 (Frame.read_u64 r);
  Alcotest.(check string) "string" "payload" (Frame.read_string r);
  Alcotest.check_raises "reading past the end raises"
    (Invalid_argument "Frame.reader: 4 bytes wanted at 23 of 23") (fun () ->
      ignore (Frame.read_u32 r))

(* ------------------------------------------------------------------ *)
(* Disk                                                                *)

let test_disk_plan_validation () =
  (try
     ignore (Disk.plan ~crash_at:0 ~seed:1 ());
     Alcotest.fail "crash_at 0 accepted"
   with Invalid_argument _ -> ());
  try
    ignore (Disk.plan ~corrupt_rate:1.5 ~seed:1 ());
    Alcotest.fail "corrupt_rate 1.5 accepted"
  with Invalid_argument _ -> ()

let test_disk_watermarks () =
  with_dir (fun d ->
      let p = Filename.concat d "f" in
      let f = Disk.create p in
      Disk.append f (Bytes.of_string "abc");
      Alcotest.(check int) "written" 3 (Disk.written f);
      Alcotest.(check int) "not yet durable" 0 (Disk.durable f);
      Disk.fsync f;
      Alcotest.(check int) "durable after fsync" 3 (Disk.durable f);
      Disk.append f (Bytes.of_string "de");
      Disk.close f;
      Alcotest.(check string) "content" "abcde"
        (Bytes.to_string (Disk.read_file p));
      (* Reopen keeps existing content and counts it durable. *)
      let g = Disk.open_append p in
      Alcotest.(check int) "reopened durable" 5 (Disk.durable g);
      Disk.append g (Bytes.of_string "f");
      Disk.fsync g;
      Disk.close g;
      Alcotest.(check string) "appended" "abcdef"
        (Bytes.to_string (Disk.read_file p)))

let test_disk_crash_truncates () =
  with_dir (fun d ->
      let p = Filename.concat d "f" in
      Disk.reset_ops ();
      (* Ops: append(1) fsync(2) append(3) fsync(4=crash). *)
      Disk.install (Disk.plan ~crash_at:4 ~seed:11 ());
      let f = Disk.create p in
      Disk.append f (Bytes.of_string "durable!");
      Disk.fsync f;
      Disk.append f (Bytes.of_string "pending");
      (try
         Disk.fsync f;
         Alcotest.fail "crash point did not fire"
       with Disk.Crash -> ());
      Alcotest.(check bool) "latch" true (Disk.crashed ());
      (* The machine stays dead. *)
      (try
         Disk.rename ~src:p ~dst:(p ^ "2");
         Alcotest.fail "op on a dead machine succeeded"
       with Disk.Crash -> ());
      Disk.clear ();
      let survived = Bytes.to_string (Disk.read_file p) in
      let n = String.length survived in
      Alcotest.(check bool)
        (Printf.sprintf "torn tail within bounds (%d bytes)" n)
        true
        (n >= 8 && n <= 15);
      Alcotest.(check string) "durable prefix intact" "durable!"
        (String.sub survived 0 8))

let test_disk_corruption () =
  with_dir (fun d ->
      let p = Filename.concat d "f" in
      Disk.install (Disk.plan ~corrupt_rate:1.0 ~seed:5 ());
      let f = Disk.create p in
      let payload = Bytes.make 32 '\x00' in
      Disk.append f payload;
      Disk.fsync f;
      Disk.close f;
      Disk.clear ();
      let got = Disk.read_file p in
      let flipped = ref 0 in
      Bytes.iter
        (fun c ->
          let rec bits n = if n = 0 then 0 else (n land 1) + bits (n lsr 1) in
          flipped := !flipped + bits (Char.code c))
        got;
      Alcotest.(check int) "exactly one bit flipped" 1 !flipped;
      Alcotest.(check bool) "caller's buffer untouched" true
        (Bytes.for_all (fun c -> c = '\x00') payload))

let test_disk_phases () =
  with_dir (fun d ->
      Disk.reset_ops ();
      Disk.set_recording true;
      Disk.set_phase "one";
      let f = Disk.create (Filename.concat d "f") in
      Disk.append f (Bytes.of_string "x");
      Disk.set_phase "two";
      Disk.fsync f;
      Disk.close f;
      Disk.set_recording false;
      Alcotest.(check (list (pair int string)))
        "phase log" [ (1, "one"); (2, "two") ] (Disk.phase_log ());
      Alcotest.(check int) "op count" 2 (Disk.op_count ()))

(* ------------------------------------------------------------------ *)
(* Wal                                                                 *)

let entries_of n = List.init n (fun i ->
    { Log.seq = i + 1;
      op = (if i mod 3 = 2 then Log.Delete (i * 10) else Log.Insert (i * 10)) })

let test_wal_roundtrip () =
  with_dir (fun d ->
      let w : int Wal.t = Wal.create ~dir:d ~gen:1 in
      let es = entries_of 7 in
      List.iter (Wal.append w) es;
      Alcotest.(check int) "unflushed" 7 (Wal.unflushed w);
      Wal.flush w;
      Alcotest.(check int) "flushed" 0 (Wal.unflushed w);
      Wal.close w;
      let got, status = Wal.load ~dir:d ~gen:1 in
      Alcotest.(check bool) "clean" true (status = `Clean);
      Alcotest.(check bool) "entries survive" true (got = es);
      Alcotest.(check bool) "missing segment is empty-clean" true
        (Wal.load ~dir:d ~gen:9 = ([], `Clean)))

let test_wal_torn_tail () =
  with_dir (fun d ->
      let w : int Wal.t = Wal.create ~dir:d ~gen:1 in
      let es = entries_of 4 in
      List.iter (Wal.append w) es;
      Wal.flush w;
      Wal.close w;
      (* A crash mid-append: half a frame header at the end. *)
      let p = Wal.path ~dir:d ~gen:1 in
      let f = Disk.open_append p in
      Disk.append f (Bytes.of_string "\042\000");
      Disk.close f;
      let got, status = Wal.load ~dir:d ~gen:1 in
      Alcotest.(check bool) "prefix" true (got = es);
      Alcotest.(check bool) "torn" true (status = `Torn);
      (* The tail was truncated in place: a second load is clean. *)
      Alcotest.(check bool) "repaired" true (Wal.load ~dir:d ~gen:1 = (es, `Clean)))

let test_wal_length_rot_not_truncated () =
  with_dir (fun d ->
      let w : int Wal.t = Wal.create ~dir:d ~gen:1 in
      let es = entries_of 5 in
      List.iter (Wal.append w) es;
      Wal.flush w;
      Wal.close w;
      let p = Wal.path ~dir:d ~gen:1 in
      let b = Disk.read_file p in
      (* Find the third frame's offset, then rot its length header so
         the claimed payload extends past EOF: parse sees "torn" there
         even though two intact frames sit right behind it. *)
      let off =
        let rec skip o n =
          if n = 0 then o
          else
            match Frame.parse b o with
            | Frame.Record (_, next) -> skip next (n - 1)
            | _ -> Alcotest.fail "setup: expected a record"
        in
        skip 0 2
      in
      let bogus = Bytes.length b in
      for i = 0 to 3 do
        Bytes.set b (off + i) (Char.chr ((bogus lsr (8 * i)) land 0xFF))
      done;
      let f = Disk.create p in
      Disk.append f b;
      Disk.close f;
      let got, status = Wal.load ~dir:d ~gen:1 in
      Alcotest.(check bool) "classified corrupt, not torn" true (status = `Corrupt);
      Alcotest.(check bool) "prefix of two" true
        (got = [ List.nth es 0; List.nth es 1 ]);
      Alcotest.(check int) "file left untouched as evidence"
        (Bytes.length b)
        (Bytes.length (Disk.read_file p));
      (* Not a self-repair: a reload sees the same corruption. *)
      let (_ : int Log.entry list), status' = Wal.load ~dir:d ~gen:1 in
      Alcotest.(check bool) "still corrupt on reload" true (status' = `Corrupt))

let test_wal_corrupt () =
  with_dir (fun d ->
      let w : int Wal.t = Wal.create ~dir:d ~gen:1 in
      List.iter (Wal.append w) (entries_of 5);
      Wal.flush w;
      Wal.close w;
      let p = Wal.path ~dir:d ~gen:1 in
      let b = Disk.read_file p in
      (* Flip a bit in the middle of the file (inside some frame). *)
      let mid = Bytes.length b / 2 in
      Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0x10));
      let f = Disk.create p in
      Disk.append f b;
      Disk.close f;
      let got, status = Wal.load ~dir:d ~gen:1 in
      Alcotest.(check bool) "corrupt detected" true (status = `Corrupt);
      Alcotest.(check bool) "only a strict prefix survives" true
        (List.length got < 5))

(* ------------------------------------------------------------------ *)
(* Snapshot / Manifest                                                 *)

let mk_run level seq elems dead =
  { Topk_ingest.Ingest.rd_level = level; rd_seq = seq;
    rd_elems = Array.of_list elems; rd_dead = Array.of_list dead }

let test_snapshot_roundtrip () =
  with_dir (fun d ->
      let runs = [ mk_run 0 12 [ 1; 2; 3 ] [ 7 ]; mk_run 3 0 [ 4; 5 ] [] ] in
      Alcotest.(check bool) "write publishes" true
        (Snapshot.write ~dir:d ~gen:2 ~seq:12 ~runs);
      Alcotest.(check bool) "no tmp left" false
        (Disk.exists (Snapshot.path ~dir:d ~gen:2 ^ ".tmp"));
      (match Snapshot.read (Snapshot.path ~dir:d ~gen:2) with
      | Ok { Snapshot.seq; runs = got } ->
          Alcotest.(check int) "seq" 12 seq;
          Alcotest.(check bool) "runs" true (got = runs)
      | Error _ -> Alcotest.fail "read back failed");
      Alcotest.(check bool) "missing" true
        (Snapshot.read (Snapshot.path ~dir:d ~gen:9) = Error `Missing);
      (* Bit rot on a published snapshot is detected. *)
      let p = Snapshot.path ~dir:d ~gen:2 in
      let b = Disk.read_file p in
      Bytes.set b 20 (Char.chr (Char.code (Bytes.get b 20) lxor 4));
      let f = Disk.create p in
      Disk.append f b;
      Disk.close f;
      Alcotest.(check bool) "corrupt detected" true
        ((Snapshot.read p : (int Snapshot.contents, _) result) = Error `Corrupt))

let test_snapshot_write_gate () =
  with_dir (fun d ->
      (* Every byte written is bit-flipped: the read-back gate must
         refuse to publish. *)
      Disk.install (Disk.plan ~corrupt_rate:1.0 ~seed:3 ());
      let ok = Snapshot.write ~dir:d ~gen:1 ~seq:0 ~runs:[ mk_run 0 0 [ 1 ] [] ] in
      Disk.clear ();
      Alcotest.(check bool) "rejected" false ok;
      Alcotest.(check bool) "nothing published" false
        (Disk.exists (Snapshot.path ~dir:d ~gen:1)))

let test_manifest () =
  with_dir (fun d ->
      Alcotest.(check (list int)) "empty" [] (Manifest.gens ~dir:d);
      Alcotest.(check bool) "publish 1" true (Manifest.publish ~dir:d ~gen:1);
      Alcotest.(check bool) "publish 3" true (Manifest.publish ~dir:d ~gen:3);
      Alcotest.(check (list int)) "newest first" [ 3; 1 ] (Manifest.gens ~dir:d);
      Alcotest.(check (option int)) "read" (Some 3)
        (Manifest.read (Manifest.path ~dir:d ~gen:3));
      (* Corruption → None, and recovery would fall back to gen 1. *)
      let p = Manifest.path ~dir:d ~gen:3 in
      let b = Disk.read_file p in
      Bytes.set b 9 (Char.chr (Char.code (Bytes.get b 9) lxor 1));
      let f = Disk.create p in
      Disk.append f b;
      Disk.close f;
      Alcotest.(check (option int)) "corrupt manifest" None (Manifest.read p))

(* ------------------------------------------------------------------ *)
(* Store: end-to-end durability on the interval instance               *)

module IStore = Store.Make (IInst.Topk_t2)
module Ing = IStore.I

let iparams = IInst.params ()

let random_interval rng id =
  let lo = Rng.uniform rng in
  let hi = lo +. Rng.float rng (1.2 -. lo) in
  I.make ~id ~lo ~hi:(min 1.2 hi)
    ~weight:(float_of_int id +. Rng.float rng 0.3)
    ()

let live_ids st =
  let v = Ing.pin (IStore.index st) in
  let ids =
    List.sort compare (List.map (fun (e : I.t) -> e.I.id) (Ing.view_live v))
  in
  Ing.unpin v;
  ids

let test_store_roundtrip () =
  with_dir (fun d ->
      let rng = Rng.create 77 in
      let base = Array.init 10 (fun i -> random_interval rng i) in
      let m = Metrics.create () in
      let st =
        IStore.create ~params:iparams ~buffer_cap:8 ~fanout:2 ~metrics:m
          ~mode:Store.Sync ~checkpoint_every:2 ~dir:d base
      in
      let last = Hashtbl.create 32 in
      Array.iter (fun (e : I.t) -> Hashtbl.replace last e.I.id e) base;
      for i = 10 to 49 do
        let e = random_interval rng i in
        Hashtbl.replace last e.I.id e;
        IStore.insert st e
      done;
      List.iter
        (fun id ->
          IStore.delete st (Hashtbl.find last id);
          Hashtbl.remove last id)
        [ 3; 17; 42 ];
      let want = List.sort compare (Hashtbl.fold (fun k _ a -> k :: a) last []) in
      Alcotest.(check (list int)) "live before close" want (live_ids st);
      IStore.close st;
      Alcotest.(check bool) "wal appends counted" true
        (Metrics.Counter.get m.Metrics.wal_appends >= 43);
      Alcotest.(check bool) "fsyncs counted" true
        (Metrics.Counter.get m.Metrics.wal_fsyncs >= 43);
      Alcotest.(check bool) "checkpoints counted" true
        (Metrics.Counter.get m.Metrics.checkpoints >= 1);
      match
        IStore.recover ~params:iparams ~buffer_cap:8 ~fanout:2 ~metrics:m
          ~mode:Store.Sync ~dir:d ()
      with
      | None -> Alcotest.fail "no recovery root"
      | Some st' ->
          Alcotest.(check (list int)) "recovered live set" want (live_ids st');
          Alcotest.(check int) "recovered prefix = all 43 updates" 43
            (IStore.recovered_seq st');
          Alcotest.(check int) "recovery counted" 1
            (Metrics.Counter.get m.Metrics.recoveries);
          (* The recovered store keeps working. *)
          let e = random_interval rng 99 in
          IStore.insert st' e;
          Alcotest.(check bool) "queryable after recovery" true
            (List.exists
               (fun (x : I.t) -> x.I.id = 99)
               (IStore.query st' ((e.I.lo +. e.I.hi) /. 2.) ~k:200));
          IStore.close st')

(* A crash between a manifest publish and its GC strands a whole
   superseded generation; the next checkpoint must sweep every stale
   generation (and tmp leftovers), not just the immediately previous
   one. *)
let test_store_gc_sweeps_stale_generations () =
  with_dir (fun d ->
      let rng = Rng.create 21 in
      let st =
        IStore.create ~params:iparams ~buffer_cap:4 ~fanout:2
          ~mode:Store.Sync ~checkpoint_every:1 ~dir:d
          (Array.init 4 (fun i -> random_interval rng i))
      in
      for i = 4 to 15 do
        IStore.insert st (random_interval rng i)
      done;
      let g = IStore.generation st in
      Alcotest.(check bool) "several generations elapsed" true (g >= 2);
      (* Fabricate a stranded generation-1 (as if an old GC died
         mid-sweep) plus a tmp leftover. *)
      let strand name =
        let f = Disk.create (Filename.concat d name) in
        Disk.append f (Bytes.of_string "stale");
        Disk.close f
      in
      List.iter strand
        [ "manifest-1"; "snap-1.dat"; "wal-1.log"; "snap-1.dat.tmp" ];
      IStore.checkpoint st;
      let g' = IStore.generation st in
      Alcotest.(check int) "checkpoint advanced" (g + 1) g';
      Alcotest.(check (list string)) "only the live generation remains"
        (List.sort String.compare
           [ Printf.sprintf "manifest-%d" g';
             Printf.sprintf "snap-%d.dat" g';
             Printf.sprintf "wal-%d.log" g' ])
        (Disk.readdir d);
      IStore.close st)

(* Manual checkpoints racing concurrent writers: the capture and the
   WAL rotation are one critical section of the ingest wrapper, so no
   writer can append to the segment being retired (which used to raise
   out of the writer) or lose a Sync-acked record with the deleted old
   generation. *)
let test_store_checkpoint_vs_writers () =
  with_dir (fun d ->
      let rng = Rng.create 31 in
      let base = Array.init 5 (fun i -> random_interval rng i) in
      let st =
        IStore.create ~params:iparams ~buffer_cap:8 ~fanout:2
          ~mode:Store.Sync ~checkpoint_every:2 ~dir:d base
      in
      let n = 150 in
      let elems = Array.init n (fun i -> random_interval rng (1000 + i)) in
      let writer =
        Domain.spawn (fun () -> Array.iter (fun e -> IStore.insert st e) elems)
      in
      for _ = 1 to 25 do
        IStore.checkpoint st
      done;
      Domain.join writer;
      IStore.checkpoint st;
      let want =
        List.sort compare
          (Array.to_list (Array.map (fun (e : I.t) -> e.I.id) base)
          @ List.init n (fun i -> 1000 + i))
      in
      Alcotest.(check (list int)) "no update lost" want (live_ids st);
      IStore.close st;
      match
        IStore.recover ~params:iparams ~buffer_cap:8 ~fanout:2
          ~mode:Store.Sync ~dir:d ()
      with
      | None -> Alcotest.fail "no recovery root"
      | Some st' ->
          Alcotest.(check int) "every acked update recovered" n
            (IStore.recovered_seq st');
          Alcotest.(check (list int)) "recovered set" want (live_ids st');
          IStore.close st')

(* Given only [~pool], the store records its WAL, checkpoint and
   recovery counters on the pool's metrics — the same default the
   ingest layer applies to its seal and merge counters. *)
let test_store_pool_metrics () =
  with_dir (fun d ->
      let rng = Rng.create 78 in
      let pool = Executor.create ~workers:1 () in
      Fun.protect
        ~finally:(fun () -> Executor.shutdown pool)
        (fun () ->
          let m = Executor.metrics pool in
          let get c = Metrics.Counter.get c in
          let st =
            IStore.create ~params:iparams ~buffer_cap:8 ~fanout:2 ~pool
              ~mode:Store.Sync ~dir:d
              (Array.init 10 (fun i -> random_interval rng i))
          in
          for i = 10 to 29 do
            IStore.insert st (random_interval rng i)
          done;
          IStore.close st;
          Alcotest.(check bool) "wal appends on the pool's metrics" true
            (get m.Metrics.wal_appends >= 20);
          Alcotest.(check bool) "checkpoints on the pool's metrics" true
            (get m.Metrics.checkpoints >= 1);
          Alcotest.(check bool) "seals on the pool's metrics" true
            (get m.Metrics.seals >= 1);
          match
            IStore.recover ~params:iparams ~buffer_cap:8 ~fanout:2 ~pool
              ~mode:Store.Sync ~dir:d ()
          with
          | None -> Alcotest.fail "no recovery root"
          | Some st' ->
              IStore.close st';
              Alcotest.(check int) "recovery on the pool's metrics" 1
                (get m.Metrics.recoveries)))

let test_store_recover_empty () =
  with_dir (fun d ->
      Alcotest.(check bool) "empty dir" true
        (IStore.recover ~params:iparams ~dir:d () = None))

let test_store_volatile () =
  with_dir (fun d ->
      let rng = Rng.create 5 in
      let st =
        IStore.create ~params:iparams ~mode:Store.Volatile ~dir:d
          (Array.init 5 (fun i -> random_interval rng i))
      in
      IStore.insert st (random_interval rng 50);
      IStore.close st;
      Alcotest.(check int) "generation stays 0" 0 (IStore.generation st);
      Alcotest.(check (list string)) "no durable files" [] (Disk.readdir d))

let test_mode_of_string () =
  Alcotest.(check bool) "sync" true (Store.mode_of_string "sync" = Some Store.Sync);
  Alcotest.(check bool) "volatile" true
    (Store.mode_of_string "volatile" = Some Store.Volatile);
  Alcotest.(check bool) "async:8" true
    (Store.mode_of_string "async:8" = Some (Store.Async 8));
  Alcotest.(check bool) "async:0 rejected" true
    (Store.mode_of_string "async:0" = None);
  Alcotest.(check bool) "garbage rejected" true (Store.mode_of_string "wal" = None)

(* ------------------------------------------------------------------ *)
(* Scrub                                                               *)

let test_scrub () =
  with_dir (fun d ->
      let rng = Rng.create 13 in
      let st =
        IStore.create ~params:iparams ~buffer_cap:8 ~mode:Store.Sync ~dir:d
          (Array.init 8 (fun i -> random_interval rng i))
      in
      for i = 8 to 19 do
        IStore.insert st (random_interval rng i)
      done;
      IStore.close st;
      let m = Metrics.create () in
      let r = Scrub.run_once ~metrics:m ~dir:d () in
      Alcotest.(check (list string)) "healthy" [] r.Scrub.bad;
      Alcotest.(check bool) "examined snapshot+manifest" true (r.Scrub.files >= 2);
      Alcotest.(check int) "pass counted" 1 (Metrics.Counter.get m.Metrics.scrubs);
      (* Rot a snapshot byte: the scrubber finds it. *)
      let snap =
        List.find (fun n -> String.length n > 5 && String.sub n 0 5 = "snap-")
          (Disk.readdir d)
      in
      let p = Filename.concat d snap in
      let b = Disk.read_file p in
      Bytes.set b (Bytes.length b / 2)
        (Char.chr (Char.code (Bytes.get b (Bytes.length b / 2)) lxor 2));
      let f = Disk.create p in
      Disk.append f b;
      Disk.close f;
      let r2 = Scrub.run_once ~metrics:m ~dir:d () in
      Alcotest.(check (list string)) "rot found" [ p ] r2.Scrub.bad;
      Alcotest.(check int) "failure counted" 1
        (Metrics.Counter.get m.Metrics.checksum_failures))

let test_scrub_background () =
  with_dir (fun d ->
      let rng = Rng.create 14 in
      let st =
        IStore.create ~params:iparams ~mode:Store.Sync ~dir:d
          (Array.init 6 (fun i -> random_interval rng i))
      in
      IStore.close st;
      let pool = Executor.create ~workers:2 () in
      Fun.protect
        ~finally:(fun () -> Executor.shutdown pool)
        (fun () ->
          let join = Scrub.spawn ~pool ~dir:d () in
          match join () with
          | Some r -> Alcotest.(check (list string)) "clean" [] r.Scrub.bad
          | None -> Alcotest.fail "background scrub failed"))

(* ------------------------------------------------------------------ *)
(* The recovery law, swept over crash points and two instantiations    *)

module Crash_law (T : Topk_core.Sigs.TOPK) = struct
  module S = Store.Make (T)

  (* A deterministic op stream: (is_insert, elem) with ids drawn from a
     small space so deletes and re-inserts actually collide. *)
  let mk_ops ~mk_elem ~n ~seed =
    let rng = Rng.create seed in
    let last = Hashtbl.create 32 in
    Array.init n (fun _i ->
        let id = Rng.int rng 24 in
        if Hashtbl.mem last id && Rng.bernoulli rng 0.3 then (
          let e = Hashtbl.find last id in
          Hashtbl.remove last id;
          (false, e))
        else
          let e = mk_elem rng id in
          Hashtbl.replace last id e;
          (true, e))

  let oracle_ids ~base ~ops r =
    let live = Hashtbl.create 64 in
    Array.iter (fun e -> Hashtbl.replace live (T.P.id e) ()) base;
    Array.iteri
      (fun i (ins, e) ->
        if i < r then
          if ins then Hashtbl.replace live (T.P.id e) ()
          else Hashtbl.remove live (T.P.id e))
      ops;
    List.sort compare (Hashtbl.fold (fun k () a -> k :: a) live [])

  let live_ids st =
    let v = S.I.pin (S.index st) in
    let ids = List.sort compare (List.map T.P.id (S.I.view_live v)) in
    S.I.unpin v;
    ids

  (* Sweep every [stride]-th crash point of the profiled op stream.
     The law: recovery yields the oracle over a prefix [r] of the
     issued updates with sync_acked <= r <= issued. *)
  let sweep ~name ~params ~mode ~mk_elem ~seed ~stride () =
    let n = 48 in
    let base = Array.init 6 (fun i -> mk_elem (Rng.create (seed + i)) (100 + i)) in
    let ops = mk_ops ~mk_elem ~n ~seed in
    let build dir =
      S.create ~params ~buffer_cap:8 ~fanout:2 ~mode ~checkpoint_every:2 ~dir
        base
    in
    (* Profile pass: no crash, count the disk ops this workload makes. *)
    let total_ops =
      with_dir (fun d ->
          Disk.clear ();
          Disk.reset_ops ();
          let st = build d in
          Array.iter (fun (ins, e) -> if ins then S.insert st e else S.delete st e) ops;
          S.close st;
          (* Sanity: the surviving set after all n ops is the oracle's. *)
          (match
             S.recover ~params ~buffer_cap:8 ~fanout:2 ~mode ~dir:d ()
           with
          | None -> Alcotest.fail "profile run lost its root"
          | Some st' ->
              Alcotest.(check (list int))
                (name ^ ": full-stream recovery")
                (oracle_ids ~base ~ops n) (live_ids st');
              S.close st');
          Disk.op_count ())
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s: workload makes enough disk ops (%d)" name total_ops)
      true (total_ops > 60);
    let point = ref 1 in
    while !point <= total_ops do
      let c = !point in
      point := !point + stride;
      with_dir (fun d ->
          Disk.reset_ops ();
          Disk.install (Disk.plan ~crash_at:c ~seed:(seed lxor (c * 7919)) ());
          let acked = ref 0 and issued = ref 0 in
          (try
             let st = build d in
             Array.iter
               (fun (ins, e) ->
                 incr issued;
                 if ins then S.insert st e else S.delete st e;
                 incr acked)
               ops;
             S.close st
           with Disk.Crash -> ());
          Disk.clear ();
          match S.recover ~params ~buffer_cap:8 ~fanout:2 ~mode ~dir:d () with
          | None ->
              (* Legal only if the store never finished creating — no
                 update was ever accepted. *)
              Alcotest.(check int)
                (Printf.sprintf "%s@%d: no root but updates acked" name c)
                0 !acked
          | Some st' ->
              let r = S.recovered_seq st' in
              if r > !issued then
                Alcotest.failf "%s@%d: recovered %d > issued %d" name c r !issued;
              if mode = Store.Sync && r < !acked then
                Alcotest.failf "%s@%d: recovered %d < sync-acked %d" name c r !acked;
              Alcotest.(check (list int))
                (Printf.sprintf "%s@%d: oracle prefix %d" name c r)
                (oracle_ids ~base ~ops r) (live_ids st');
              S.close st')
    done
end

module Interval_law = Crash_law (IInst.Topk_t2)
module Range_law = Crash_law (RInst.Topk_t2)

let mk_point rng id =
  Wp.make ~id ~pos:(Rng.uniform rng)
    ~weight:(float_of_int id +. Rng.float rng 0.4)
    ()

let test_law_interval_sync () =
  Interval_law.sweep ~name:"interval/sync" ~params:iparams ~mode:Store.Sync
    ~mk_elem:random_interval ~seed:4242 ~stride:3 ()

let test_law_interval_async () =
  Interval_law.sweep ~name:"interval/async" ~params:iparams
    ~mode:(Store.Async 4) ~mk_elem:random_interval ~seed:929 ~stride:5 ()

let test_law_range_sync () =
  Range_law.sweep ~name:"range/sync" ~params:(RInst.params ()) ~mode:Store.Sync
    ~mk_elem:mk_point ~seed:17 ~stride:4 ()

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "durable"
    [
      ( "frame",
        [
          Alcotest.test_case "crc32 vectors" `Quick test_frame_crc;
          Alcotest.test_case "roundtrip" `Quick test_frame_roundtrip;
          Alcotest.test_case "torn and corrupt" `Quick test_frame_torn_and_corrupt;
          Alcotest.test_case "reader" `Quick test_frame_reader;
        ] );
      ( "disk",
        [
          Alcotest.test_case "plan validation" `Quick test_disk_plan_validation;
          Alcotest.test_case "watermarks" `Quick test_disk_watermarks;
          Alcotest.test_case "crash truncates to a torn tail" `Quick
            test_disk_crash_truncates;
          Alcotest.test_case "corruption flips one bit" `Quick test_disk_corruption;
          Alcotest.test_case "phase recording" `Quick test_disk_phases;
        ] );
      ( "wal",
        [
          Alcotest.test_case "roundtrip" `Quick test_wal_roundtrip;
          Alcotest.test_case "torn tail truncated" `Quick test_wal_torn_tail;
          Alcotest.test_case "corrupt frame stops replay" `Quick test_wal_corrupt;
          Alcotest.test_case "length-header rot is corruption, not a tail" `Quick
            test_wal_length_rot_not_truncated;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "roundtrip and rot detection" `Quick
            test_snapshot_roundtrip;
          Alcotest.test_case "read-back gate refuses corruption" `Quick
            test_snapshot_write_gate;
        ] );
      ("manifest", [ Alcotest.test_case "publish/read/gens" `Quick test_manifest ]);
      ( "store",
        [
          Alcotest.test_case "write, close, recover, continue" `Quick
            test_store_roundtrip;
          Alcotest.test_case "GC sweeps stale generations" `Quick
            test_store_gc_sweeps_stale_generations;
          Alcotest.test_case "manual checkpoint vs concurrent writers" `Quick
            test_store_checkpoint_vs_writers;
          Alcotest.test_case "pool-only store counts on the pool" `Quick
            test_store_pool_metrics;
          Alcotest.test_case "recover on empty dir" `Quick test_store_recover_empty;
          Alcotest.test_case "volatile writes nothing" `Quick test_store_volatile;
          Alcotest.test_case "mode_of_string" `Quick test_mode_of_string;
        ] );
      ( "scrub",
        [
          Alcotest.test_case "finds rot" `Quick test_scrub;
          Alcotest.test_case "background pass on the pool" `Quick
            test_scrub_background;
        ] );
      ( "recovery-law",
        [
          Alcotest.test_case "interval Theorem 2, sync" `Quick test_law_interval_sync;
          Alcotest.test_case "interval Theorem 2, async group-commit" `Quick
            test_law_interval_async;
          Alcotest.test_case "1D range Theorem 2, sync" `Quick test_law_range_sync;
        ] );
    ]
