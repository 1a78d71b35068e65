(* Tests for the replication subsystem: the seeded fault-injectable
   transport, the wire codec (shared with the durable WAL format), the
   retained outlog and go-back-N shipper, replica replay and snapshot
   install, staleness-bounded routing, group end-to-end convergence
   under loss, deterministic failover with term fencing — and the
   replication metrics' text exposition. *)

module Rng = Topk_util.Rng
module I = Topk_interval.Interval
module Inst = Topk_interval.Instances
module Log = Topk_ingest.Update_log
module Transport = Topk_repl.Transport
module Wire = Topk_repl.Wire
module Ship = Topk_repl.Log_ship
module Outlog = Topk_repl.Log_ship.Outlog
module Router = Topk_repl.Router
module Metrics = Topk_service.Metrics
module Consistency = Topk_cache.Consistency
module Response = Topk_service.Response
module G = Topk_repl.Group.Make (Inst.Topk_t2)
module R = Topk_repl.Replica.Make (Inst.Topk_t2)

let iparams = Inst.params ()

let ids elems = List.sort compare (List.map (fun (e : I.t) -> e.I.id) elems)

(* The reference model: live intervals, newest wins. *)
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

let base_elems rng n = Array.init n (fun i -> random_interval rng (i + 1))

(* ------------------------------------------------------------------ *)
(* Transport                                                           *)

let payload i = Bytes.of_string (Printf.sprintf "msg-%d" i)

let test_transport_clean () =
  let tr = Transport.create ~nodes:3 () in
  Transport.send tr ~src:0 ~dst:1 (payload 1);
  Transport.send tr ~src:0 ~dst:1 (payload 2);
  Transport.send tr ~src:2 ~dst:1 (payload 3);
  Alcotest.(check (list (pair int string)))
    "nothing before tick" []
    (List.map (fun (s, b) -> (s, Bytes.to_string b)) (Transport.recv tr ~dst:1));
  Transport.tick tr;
  Alcotest.(check (list (pair int string)))
    "in order, with sources"
    [ (0, "msg-1"); (0, "msg-2"); (2, "msg-3") ]
    (List.map (fun (s, b) -> (s, Bytes.to_string b)) (Transport.recv tr ~dst:1));
  Alcotest.(check bool) "idle after drain" true (Transport.idle tr);
  let st = Transport.stats tr ~src:0 ~dst:1 in
  Alcotest.(check int) "sent" 2 st.Transport.sent;
  Alcotest.(check int) "delivered" 2 st.Transport.delivered

let test_transport_faults_deterministic () =
  let run () =
    let plan =
      Transport.plan ~drop:0.3 ~dup:0.2 ~reorder:0.3 ~delay_max:3 ~seed:42 ()
    in
    let tr = Transport.create ~plan ~nodes:2 () in
    for i = 1 to 100 do
      Transport.send tr ~src:0 ~dst:1 (payload i)
    done;
    let got = ref [] in
    for _ = 1 to 20 do
      Transport.tick tr;
      List.iter
        (fun (_, b) -> got := Bytes.to_string b :: !got)
        (Transport.recv tr ~dst:1)
    done;
    let st = Transport.stats tr ~src:0 ~dst:1 in
    (List.rev !got, st.Transport.dropped, st.Transport.duplicated)
  in
  let g1, d1, u1 = run () in
  let g2, d2, u2 = run () in
  Alcotest.(check (list string)) "same schedule" g1 g2;
  Alcotest.(check int) "same drops" d1 d2;
  Alcotest.(check int) "same dups" u1 u2;
  Alcotest.(check bool) "some loss at p=0.3" true (d1 > 0);
  Alcotest.(check bool) "some delivery" true (List.length g1 > 0)

let test_transport_cut_latch () =
  let tr = Transport.create ~nodes:2 () in
  Transport.send tr ~src:0 ~dst:1 (payload 1);
  (* The cut discards the in-flight message and latches the link. *)
  Transport.cut tr ~src:0 ~dst:1;
  Transport.send tr ~src:0 ~dst:1 (payload 2);
  Transport.tick tr;
  Alcotest.(check int) "nothing delivered" 0
    (List.length (Transport.recv tr ~dst:1));
  Alcotest.(check int) "both dropped" 2
    (Transport.stats tr ~src:0 ~dst:1).Transport.dropped;
  Transport.heal tr ~src:0 ~dst:1;
  Transport.send tr ~src:0 ~dst:1 (payload 3);
  Transport.tick tr;
  Alcotest.(check int) "healed link delivers" 1
    (List.length (Transport.recv tr ~dst:1))

(* ------------------------------------------------------------------ *)
(* Wire                                                                *)

let entry seq id =
  { Log.seq; op = (if id >= 0 then Log.Insert id else Log.Delete (-id)) }

let check_roundtrip msg =
  match Wire.decode (Wire.encode msg) with
  | Error `Corrupt -> Alcotest.fail "decode failed"
  | Ok m -> Alcotest.(check string) "roundtrip"
      (Format.asprintf "%a" Wire.pp msg)
      (Format.asprintf "%a" Wire.pp m)

let test_wire_roundtrip () =
  check_roundtrip (Wire.Ship { term = 3; entry = entry 17 42 });
  check_roundtrip (Wire.Ack { term = 0; upto = 123456789 });
  let snap = Bytes.of_string "not-really-a-snapshot" in
  check_roundtrip
    (Wire.Install { term = 2; snap; tail = [ entry 5 1; entry 6 (-1) ] });
  (* Ship payloads are the WAL record codec verbatim. *)
  (match Wire.decode (Wire.encode (Wire.Ship { term = 1; entry = entry 9 7 }))
   with
  | Ok (Wire.Ship { entry = e; _ }) ->
      Alcotest.(check int) "seq survives" 9 e.Log.seq;
      (match e.Log.op with
      | Log.Insert 7 -> ()
      | _ -> Alcotest.fail "op mangled")
  | _ -> Alcotest.fail "ship roundtrip");
  (* Corruption is detected by the frame checksum. *)
  let b = Wire.encode (Wire.Ack { term = 1; upto = 7 }) in
  Bytes.set b (Bytes.length b - 1) '\xff';
  (match Wire.decode b with
  | Error `Corrupt -> ()
  | Ok _ -> Alcotest.fail "corrupt frame accepted");
  match Wire.decode (Bytes.of_string "short") with
  | Error `Corrupt -> ()
  | Ok _ -> Alcotest.fail "truncated buffer accepted"

(* ------------------------------------------------------------------ *)
(* Outlog + shipper                                                    *)

let test_outlog () =
  let o : int Outlog.t = Outlog.create ~retain:4 () in
  Alcotest.(check int) "empty last" 0 (Outlog.last o);
  Alcotest.(check int) "empty floor" 1 (Outlog.floor o);
  for s = 1 to 10 do
    Outlog.append o (entry s s)
  done;
  Alcotest.(check int) "last" 10 (Outlog.last o);
  Alcotest.(check int) "floor after GC" 7 (Outlog.floor o);
  Alcotest.(check bool) "GC'd entry gone" true (Outlog.get o 6 = None);
  (match Outlog.get o 7 with
  | Some e -> Alcotest.(check int) "retained entry" 7 e.Log.seq
  | None -> Alcotest.fail "retained entry missing");
  (try
     Outlog.append o (entry 13 13);
     Alcotest.fail "gap accepted"
   with Invalid_argument _ -> ());
  Outlog.reset_to o ~seq:20;
  Alcotest.(check int) "reset last" 20 (Outlog.last o);
  Alcotest.(check int) "reset floor" 21 (Outlog.floor o);
  Outlog.append o (entry 21 21);
  Alcotest.(check int) "resumes above reset" 21 (Outlog.last o)

let test_shipper_window_and_ack () =
  let o : int Outlog.t = Outlog.create () in
  for s = 1 to 20 do
    Outlog.append o (entry s s)
  done;
  let sh = Ship.attach ~window:4 ~rto:3 o in
  Ship.add_peer sh ~now:0 1;
  let sent = ref [] in
  let installs = ref 0 in
  let tick now =
    Ship.tick sh ~now
      ~ship:(fun ~peer:_ e -> sent := e.Log.seq :: !sent)
      ~install:(fun ~peer:_ -> incr installs)
  in
  tick 1;
  Alcotest.(check (list int)) "window of 4" [ 1; 2; 3; 4 ] (List.rev !sent);
  tick 2;
  Alcotest.(check (list int)) "window full, nothing more" [ 1; 2; 3; 4 ]
    (List.rev !sent);
  (* A cumulative ack opens the window. *)
  Alcotest.(check bool) "ack advances" true
    (Ship.handle_ack sh ~peer:1 ~upto:3 ~now:2);
  Alcotest.(check bool) "stale ack ignored" false
    (Ship.handle_ack sh ~peer:1 ~upto:2 ~now:2);
  sent := [];
  tick 3;
  Alcotest.(check (list int)) "slides to 5..7" [ 5; 6; 7 ] (List.rev !sent);
  (* No progress for rto ticks: go-back-N rewinds to acked+1. *)
  sent := [];
  tick 10;
  Alcotest.(check (list int)) "retransmit from 4" [ 4; 5; 6; 7 ]
    (List.rev !sent);
  Alcotest.(check int) "no install needed" 0 !installs;
  (* An ack past the cursor (a rejoined peer that already had
     everything) snaps the cursor forward. *)
  ignore (Ship.handle_ack sh ~peer:1 ~upto:20 ~now:10 : bool);
  sent := [];
  tick 11;
  Alcotest.(check (list int)) "nothing left to ship" [] (List.rev !sent);
  Alcotest.(check int) "covering acks" 1 (Ship.acks_covering sh 20)

let test_shipper_install_below_floor () =
  let o : int Outlog.t = Outlog.create ~retain:4 () in
  for s = 1 to 20 do
    Outlog.append o (entry s s)
  done;
  (* floor is 17: a fresh peer (cursor 1) cannot be served from
     history. *)
  let sh = Ship.attach ~window:4 ~rto:3 o in
  Ship.add_peer sh ~now:0 1;
  let installs = ref 0 and sent = ref [] in
  let tick now =
    Ship.tick sh ~now
      ~ship:(fun ~peer:_ e -> sent := e.Log.seq :: !sent)
      ~install:(fun ~peer -> incr installs;
                 Ship.mark_installing sh ~peer ~upto:20 ~now)
  in
  tick 1;
  Alcotest.(check int) "install requested" 1 !installs;
  Alcotest.(check (list int)) "no frames below floor" [] !sent;
  (* After the install the cursor is past the image; new appends
     ship normally. *)
  Outlog.append o (entry 21 21);
  tick 2;
  Alcotest.(check (list int)) "tail ships" [ 21 ] (List.rev !sent)

(* ------------------------------------------------------------------ *)
(* Router                                                              *)

let cand ?(alive = true) ?(primary = false) id applied =
  { Router.c_id = id; c_applied = applied; c_alive = alive;
    c_primary = primary }

let test_router () =
  let r = Router.create () in
  let cands =
    [ cand ~primary:true 0 100; cand 1 100; cand 2 90; cand 3 40 ]
  in
  (* Unconstrained: round-robin over all replicas. *)
  let picks = List.init 6 (fun _ -> Router.select r ~head:100 cands) in
  Alcotest.(check (list (option int)))
    "round-robin"
    [ Some 1; Some 2; Some 3; Some 1; Some 2; Some 3 ]
    picks;
  (* A staleness bound filters the laggard. *)
  let r = Router.create () in
  Alcotest.(check (option int)) "max_lag filters" (Some 1)
    (Router.select r ~head:100 ~consistency:(Consistency.Max_lag 15) cands);
  Alcotest.(check (option int)) "max_lag second" (Some 2)
    (Router.select r ~head:100 ~consistency:(Consistency.Max_lag 15) cands);
  (* A token no replica holds falls back to the primary. *)
  let r = Router.create () in
  Alcotest.(check (option int)) "primary fallback" (Some 0)
    (Router.select r ~head:100 ~consistency:(Consistency.At_least 95)
       [ cand ~primary:true 0 100; cand 2 90 ]);
  (* A token from the future answers nowhere. *)
  Alcotest.(check (option int)) "unsatisfiable token" None
    (Router.select r ~head:100 ~consistency:(Consistency.At_least 101)
       [ cand ~primary:true 0 100 ]);
  (* Dead nodes are skipped. *)
  Alcotest.(check (option int)) "dead skipped" (Some 2)
    (Router.select r ~head:100 [ cand ~alive:false 1 100; cand 2 90 ])

(* ------------------------------------------------------------------ *)
(* Group end to end                                                    *)

let group_workload ?(updates = 120) ?(seed = 7) g model =
  (* Drive a seeded insert/delete stream through the group, mirroring
     it in the caller's model; returns the synced-write count. *)
  let rng = Rng.create seed in
  let next_id = ref 1000 and synced = ref 0 in
  let live = ref [] in
  for _ = 1 to updates do
    let op =
      if Rng.uniform rng < 0.75 || !live = [] then begin
        let e = random_interval rng !next_id in
        incr next_id;
        live := e :: !live;
        `Ins e
      end
      else begin
        let e = List.nth !live (Rng.int rng (List.length !live)) in
        live := List.filter (fun (x : I.t) -> x.I.id <> e.I.id) !live;
        `Del e
      end
    in
    let outcome =
      match op with
      | `Ins e ->
          Model.insert model e;
          G.insert g e
      | `Del e ->
          Model.delete model e;
          G.delete g e
    in
    if G.synced outcome then incr synced
  done;
  !synced

let check_consistent g model =
  let want = ids model.Model.live in
  for i = 0 to G.nodes g - 1 do
    if G.alive g i then
      Alcotest.(check (list int))
        (Printf.sprintf "node %d equals oracle" i)
        want
        (ids (R.live (G.node g i)))
  done

let test_group_clean () =
  let rng = Rng.create 11 in
  let base = base_elems rng 24 in
  let g =
    G.create ~params:iparams ~buffer_cap:8 ~fanout:2 ~name:"g" ~replicas:2
      base
  in
  let model = Model.create () in
  Array.iter (Model.insert model) base;
  let synced = group_workload g model in
  Alcotest.(check int) "every write synced on a clean fabric" 120 synced;
  Alcotest.(check bool) "settles" true (G.settle g);
  check_consistent g model;
  (* A replica read carries the read-your-writes token. *)
  match G.read g 0.5 ~k:5 with
  | None -> Alcotest.fail "read refused"
  | Some r ->
      Alcotest.(check bool) "read on a replica" true (r.Response.worker <> 0);
      (match Response.seq_token r with
      | Some tok -> Alcotest.(check int) "token at head" (G.head g) tok
      | None -> Alcotest.fail "no seq token");
      Alcotest.(check (list int))
        "answers equal model top-k"
        (ids (Model.top_k model 0.5 ~k:5))
        (ids r.Response.answers)

let test_group_lossy_converges () =
  let rng = Rng.create 23 in
  let base = base_elems rng 24 in
  let plan =
    Transport.plan ~drop:0.15 ~dup:0.1 ~reorder:0.15 ~delay_max:2 ~seed:99 ()
  in
  let g =
    G.create ~params:iparams ~buffer_cap:8 ~fanout:2 ~plan ~quorum:1
      ~name:"lossy" ~replicas:3 base
  in
  let model = Model.create () in
  Array.iter (Model.insert model) base;
  ignore (group_workload ~updates:150 ~seed:31 g model : int);
  Alcotest.(check bool) "settles despite loss" true (G.settle g);
  check_consistent g model

let test_group_snapshot_install () =
  let rng = Rng.create 5 in
  let base = base_elems rng 16 in
  (* Tiny retention: a partitioned replica falls behind the floor and
     must be caught up by snapshot install after it rejoins. *)
  let g =
    G.create ~params:iparams ~buffer_cap:8 ~fanout:2 ~retain:16 ~quorum:1
      ~name:"inst" ~replicas:2 base
  in
  let model = Model.create () in
  Array.iter (Model.insert model) base;
  G.partition g 2;
  ignore (group_workload ~updates:80 ~seed:13 g model : int);
  G.rejoin g 2;
  Alcotest.(check bool) "settles" true (G.settle g);
  Alcotest.(check bool) "replica 2 was caught up by install" true
    (R.installs (G.node g 2) > 0);
  check_consistent g model

let test_group_failover () =
  let rng = Rng.create 17 in
  let base = base_elems rng 16 in
  let metrics = Metrics.create () in
  let g =
    G.create ~params:iparams ~buffer_cap:8 ~fanout:2 ~metrics ~quorum:1
      ~name:"fo" ~replicas:2 base
  in
  let model = Model.create () in
  Array.iter (Model.insert model) base;
  ignore (group_workload ~updates:60 ~seed:3 g model : int);
  let synced_head = G.head g in
  Alcotest.(check bool) "pre-failover settle" true (G.settle g);
  let old_primary = G.primary g in
  let p = G.fail_primary g in
  Alcotest.(check bool) "new primary differs" true (p <> old_primary);
  Alcotest.(check int) "term bumped" 1 (G.term g);
  (* Every synced write survives: the promoted head covers it. *)
  Alcotest.(check bool) "promoted head covers synced prefix" true
    (G.head g >= synced_head);
  (* Term fencing: a straggler Ship from the deposed primary is
     rejected by the replicas. *)
  let straggler =
    Wire.Ship { term = 0; entry = { Log.seq = G.head g + 1;
                                    op = Log.Insert (random_interval rng 9999) } }
  in
  Alcotest.(check (option int)) "stale term fenced" None
    (R.handle (G.node g p) straggler);
  (* The new timeline keeps going. *)
  let e = random_interval rng 5000 in
  Model.insert model e;
  let o = G.insert g e in
  Alcotest.(check bool) "post-failover write syncs" true (G.synced o);
  Alcotest.(check bool) "post-failover settle" true (G.settle g);
  check_consistent g model;
  (* Reads never route to the dead node. *)
  for _ = 1 to 8 do
    match G.read g 0.4 ~k:3 with
    | Some r ->
        Alcotest.(check bool) "dead node never answers" true
          (r.Response.worker <> old_primary)
    | None -> Alcotest.fail "read refused after failover"
  done;
  Alcotest.(check int) "failover counted" 1
    (Metrics.Counter.get metrics.Metrics.failovers)

(* ------------------------------------------------------------------ *)
(* Metrics exposition                                                  *)

let line_value report name =
  let prefix = name ^ " " in
  List.find_map
    (fun l ->
      if String.starts_with ~prefix l then
        Some
          (int_of_string
             (String.sub l (String.length prefix)
                (String.length l - String.length prefix)))
      else None)
    (String.split_on_char '\n' report)

let repl_lines =
  [ "topk_repl_frames_shipped"; "topk_repl_frames_acked";
    "topk_repl_frames_dropped"; "topk_repl_snapshot_installs";
    "topk_repl_failovers"; "topk_repl_replica_lag" ]

let test_metrics_exposition () =
  (* Fresh registry: every replication line present and zero. *)
  let fresh = Metrics.report (Metrics.create ()) in
  List.iter
    (fun name ->
      match line_value fresh name with
      | Some v -> Alcotest.(check int) (name ^ " at zero") 0 v
      | None -> Alcotest.fail (name ^ " missing from report"))
    repl_lines;
  (* After a lossy run with a partition-forced install and a failover,
     the counters have moved. *)
  let rng = Rng.create 29 in
  let base = base_elems rng 16 in
  let metrics = Metrics.create () in
  let plan = Transport.plan ~drop:0.1 ~seed:77 () in
  let g =
    G.create ~params:iparams ~buffer_cap:8 ~fanout:2 ~retain:16 ~plan
      ~metrics ~quorum:1 ~name:"m" ~replicas:2 base
  in
  G.partition g 2;
  ignore (group_workload ~updates:60 ~seed:41 g (Model.create ()) : int);
  G.rejoin g 2;
  Alcotest.(check bool) "settle" true (G.settle g);
  ignore (G.fail_primary g : int);
  Alcotest.(check bool) "post-failover settle" true (G.settle g);
  let report = Metrics.report metrics in
  let get name = Option.value ~default:(-1) (line_value report name) in
  Alcotest.(check bool) "frames shipped" true
    (get "topk_repl_frames_shipped" > 0);
  Alcotest.(check bool) "acks counted" true
    (get "topk_repl_frames_acked" > 0);
  Alcotest.(check bool) "drops counted" true
    (get "topk_repl_frames_dropped" > 0);
  Alcotest.(check bool) "install counted" true
    (get "topk_repl_snapshot_installs" > 0);
  Alcotest.(check int) "failover counted" 1 (get "topk_repl_failovers");
  Alcotest.(check int) "lag back to zero after settle" 0
    (get "topk_repl_replica_lag")

let () =
  Alcotest.run "topk_repl"
    [
      ( "transport",
        [
          Alcotest.test_case "clean delivery" `Quick test_transport_clean;
          Alcotest.test_case "seeded faults replay" `Quick
            test_transport_faults_deterministic;
          Alcotest.test_case "cut latch" `Quick test_transport_cut_latch;
        ] );
      ("wire", [ Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip ]);
      ( "shipping",
        [
          Alcotest.test_case "outlog" `Quick test_outlog;
          Alcotest.test_case "window + cumulative ack" `Quick
            test_shipper_window_and_ack;
          Alcotest.test_case "install below floor" `Quick
            test_shipper_install_below_floor;
        ] );
      ("router", [ Alcotest.test_case "selection" `Quick test_router ]);
      ( "group",
        [
          Alcotest.test_case "clean replication" `Quick test_group_clean;
          Alcotest.test_case "lossy convergence" `Quick
            test_group_lossy_converges;
          Alcotest.test_case "snapshot install" `Quick
            test_group_snapshot_install;
          Alcotest.test_case "failover" `Quick test_group_failover;
        ] );
      ( "metrics",
        [ Alcotest.test_case "exposition" `Quick test_metrics_exposition ] );
    ]
