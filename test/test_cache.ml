(* The epoch-consistent answer cache: unit laws over the striped store
   (admission, prefix serving, LRU eviction, version supersession,
   term fencing), the Client facade's cache-transparency laws, a
   Client in front of a replicated group matching the bare group
   across a failover, stale refusal under a read-your-writes token,
   and a 4-domain race over the striped table. *)

module C = Topk_cache.Cache
module V = Topk_cache.Version
module Cons = Topk_cache.Consistency
module Svc = Topk_service
module I = Topk_interval.Interval
module IInst = Topk_interval.Instances
module Rng = Topk_util.Rng

let v ~term ~seq = V.make ~term ~seq

(* --- Version --- *)

let test_version () =
  let a = v ~term:0 ~seq:3 and b = v ~term:0 ~seq:7 in
  Alcotest.(check bool) "seq orders" true (V.compare a b < 0);
  Alcotest.(check bool) "term dominates" true
    (V.compare (v ~term:1 ~seq:0) b > 0);
  Alcotest.(check bool) "equal" true (V.equal a (v ~term:0 ~seq:3));
  Alcotest.(check bool) "newer_than" true (V.newer_than b a);
  let bumped = V.bump_term b in
  Alcotest.(check int) "bump keeps seq" 7 (V.seq bumped);
  Alcotest.(check int) "bump advances term" 1 (V.term bumped);
  Alcotest.(check int) "static" 0 (V.seq V.static);
  Alcotest.check_raises "negative seq"
    (Invalid_argument "Version.make: seq must be >= 0 (got -1)") (fun () ->
      ignore (V.make ~term:0 ~seq:(-1)))

(* --- Consistency.admits --- *)

let test_consistency_admits () =
  let current = v ~term:1 ~seq:10 in
  let ck name want entry level =
    Alcotest.(check bool) name want (Cons.admits ~current ~entry level)
  in
  (* Any serves only the exact live version: cache-on == cache-off. *)
  ck "any exact" true (v ~term:1 ~seq:10) Cons.Any;
  ck "any behind" false (v ~term:1 ~seq:9) Cons.Any;
  (* At_least is the read-your-writes floor. *)
  ck "at_least ok" true (v ~term:1 ~seq:9) (Cons.At_least 5);
  ck "at_least under" false (v ~term:1 ~seq:4) (Cons.At_least 5);
  (* Pinned demands the snapshot exactly. *)
  ck "pinned exact" true (v ~term:1 ~seq:9) (Cons.Pinned 9);
  ck "pinned over" false (v ~term:1 ~seq:10) (Cons.Pinned 9);
  (* Max_lag bounds distance behind the head. *)
  ck "max_lag ok" true (v ~term:1 ~seq:8) (Cons.Max_lag 2);
  ck "max_lag over" false (v ~term:1 ~seq:7) (Cons.Max_lag 2);
  (* Never across terms: a pre-failover answer may cover truncated
     writes. *)
  ck "cross-term any" false (v ~term:0 ~seq:10) Cons.Any;
  ck "cross-term at_least" false (v ~term:0 ~seq:10) (Cons.At_least 0);
  ck "cross-term max_lag" false (v ~term:0 ~seq:10) (Cons.Max_lag 100);
  (* Never from the future (a fenced answer leaking across a
     truncation would look like this). *)
  ck "future" false (v ~term:1 ~seq:11) (Cons.At_least 0);
  Alcotest.check_raises "negative token"
    (Invalid_argument "Consistency: At_least seq must be >= 0 (got -1)") (fun () ->
      Cons.validate (Cons.At_least (-1)))

(* --- admission threshold --- *)

let test_admission_threshold () =
  let c = C.create ~min_cost:5 () in
  let admit ~qkey ~cost =
    C.admit c ~instance:"i" ~qkey ~version:V.static ~k:3 ~len:3 ~cost ~now:0.0
      [ 1; 2; 3 ]
  in
  Alcotest.(check bool) "cheap answer bypassed" true
    (admit ~qkey:"a" ~cost:4 = `Bypassed);
  Alcotest.(check bool) "costly answer admitted" true
    (admit ~qkey:"b" ~cost:5 = `Admitted);
  Alcotest.(check int) "only the admitted entry stored" 1 (C.length c);
  let st = C.stats c in
  Alcotest.(check int) "bypass counted" 1 st.C.st_bypasses;
  Alcotest.(check int) "admit counted" 1 st.C.st_admits

(* --- prefix serving --- *)

let test_prefix_serving () =
  let c = C.create () in
  let find ~qkey ~k =
    C.find c ~instance:"i" ~qkey ~current:V.static ~k ~now:1.0 ()
  in
  ignore
    (C.admit c ~instance:"i" ~qkey:"full" ~version:V.static ~k:10 ~len:10
       ~cost:50 ~now:0.0
       [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]);
  (match find ~qkey:"full" ~k:10 with
  | C.Hit e -> Alcotest.(check int) "full k" 10 e.C.e_len
  | _ -> Alcotest.fail "expected hit at the cached k");
  (match find ~qkey:"full" ~k:3 with
  | C.Hit e ->
      (* The entry serves any smaller k; the caller slices. *)
      Alcotest.(check (list int)) "payload intact"
        [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
        e.C.e_payload
  | _ -> Alcotest.fail "an entry at k=10 must serve k=3");
  (match find ~qkey:"full" ~k:11 with
  | C.Miss -> ()
  | _ -> Alcotest.fail "k=11 exceeds the cached rank coverage");
  (* A short answer (len < k) proved the matching set exhausted, so it
     covers every rank. *)
  ignore
    (C.admit c ~instance:"i" ~qkey:"short" ~version:V.static ~k:10 ~len:4
       ~cost:50 ~now:0.0 [ 1; 2; 3; 4 ]);
  match find ~qkey:"short" ~k:25 with
  | C.Hit e -> Alcotest.(check int) "exhausted set serves any k" 4 e.C.e_len
  | _ -> Alcotest.fail "an exhausted answer must serve any k"

(* --- version supersession --- *)

let test_supersede () =
  let c = C.create () in
  let admit ~version ~k ~len payload =
    C.admit c ~instance:"i" ~qkey:"q" ~version ~k ~len ~cost:50 ~now:0.0
      payload
  in
  Alcotest.(check bool) "first admit" true
    (admit ~version:(v ~term:0 ~seq:5) ~k:10 ~len:10 [ 1 ] = `Admitted);
  (* A slow query racing a fast update must not roll the cache back. *)
  Alcotest.(check bool) "older version refused" true
    (admit ~version:(v ~term:0 ~seq:4) ~k:10 ~len:10 [ 2 ] = `Superseded);
  Alcotest.(check bool) "same version, smaller k refused" true
    (admit ~version:(v ~term:0 ~seq:5) ~k:8 ~len:8 [ 3 ] = `Superseded);
  Alcotest.(check bool) "same version, wider k replaces" true
    (admit ~version:(v ~term:0 ~seq:5) ~k:12 ~len:12 [ 4 ] = `Admitted);
  Alcotest.(check bool) "newer version replaces" true
    (admit ~version:(v ~term:0 ~seq:6) ~k:10 ~len:10 [ 5 ] = `Admitted);
  match
    C.find c ~instance:"i" ~qkey:"q" ~current:(v ~term:0 ~seq:6) ~k:5 ~now:0.0
      ()
  with
  | C.Hit e -> Alcotest.(check (list int)) "newest payload" [ 5 ] e.C.e_payload
  | _ -> Alcotest.fail "expected the newest entry"

(* --- LRU eviction --- *)

let test_lru () =
  let evicted = ref 0 in
  let c = C.create ~stripes:1 ~capacity:3 ~on_evict:(fun () -> incr evicted) () in
  let admit ~qkey ~now =
    ignore
      (C.admit c ~instance:"i" ~qkey ~version:V.static ~k:3 ~len:3 ~cost:9 ~now
         [ 1 ])
  in
  let find ~qkey ~now =
    C.find c ~instance:"i" ~qkey ~current:V.static ~k:3 ~now ()
  in
  admit ~qkey:"a" ~now:1.0;
  admit ~qkey:"b" ~now:2.0;
  admit ~qkey:"c" ~now:3.0;
  (* Touch [a]: it is now more recently used than [b]. *)
  (match find ~qkey:"a" ~now:4.0 with
  | C.Hit _ -> ()
  | _ -> Alcotest.fail "a must hit");
  admit ~qkey:"d" ~now:5.0;
  Alcotest.(check int) "capacity held" 3 (C.length c);
  Alcotest.(check int) "one eviction" 1 !evicted;
  (match find ~qkey:"b" ~now:6.0 with
  | C.Miss -> ()
  | _ -> Alcotest.fail "least-recently-used entry must be the victim");
  match (find ~qkey:"a" ~now:6.0, find ~qkey:"d" ~now:6.0) with
  | C.Hit _, C.Hit _ -> ()
  | _ -> Alcotest.fail "recently-used entries must survive"

(* --- term fencing --- *)

let test_term_fencing () =
  let c = C.create () in
  ignore
    (C.admit c ~instance:"i" ~qkey:"q" ~version:(v ~term:0 ~seq:5) ~k:3 ~len:3
       ~cost:9 ~now:0.0 [ 1 ]);
  (* The failover bumps the term without moving seq: the pre-failover
     entry is present but must refuse to serve under every level. *)
  let fenced = v ~term:1 ~seq:5 in
  List.iter
    (fun level ->
      match
        C.find c ~instance:"i" ~qkey:"q" ~current:fenced ~k:3 ~now:0.0
          ~consistency:level ()
      with
      | C.Stale -> ()
      | C.Hit _ -> Alcotest.failf "pre-failover entry served under %s"
            (Cons.to_string level)
      | C.Miss -> Alcotest.fail "entry should still be present")
    [ Cons.Any; Cons.At_least 0; Cons.Max_lag 100 ];
  (* Re-admission at the new term takes over. *)
  ignore
    (C.admit c ~instance:"i" ~qkey:"q" ~version:fenced ~k:3 ~len:3 ~cost:9
       ~now:0.0 [ 2 ]);
  match C.find c ~instance:"i" ~qkey:"q" ~current:fenced ~k:3 ~now:0.0 () with
  | C.Hit e -> Alcotest.(check (list int)) "new-term payload" [ 2 ] e.C.e_payload
  | _ -> Alcotest.fail "re-admitted entry must serve"

(* --- invalidate / clear / stats --- *)

let test_invalidate_clear () =
  let c = C.create () in
  ignore
    (C.admit c ~instance:"i" ~qkey:"q" ~version:V.static ~k:3 ~len:3 ~cost:9
       ~now:0.0 [ 1 ]);
  Alcotest.(check bool) "invalidate present" true
    (C.invalidate c ~instance:"i" ~qkey:"q");
  Alcotest.(check bool) "invalidate absent" false
    (C.invalidate c ~instance:"i" ~qkey:"q");
  ignore
    (C.admit c ~instance:"i" ~qkey:"q" ~version:V.static ~k:3 ~len:3 ~cost:9
       ~now:0.0 [ 1 ]);
  C.clear c;
  Alcotest.(check int) "clear empties" 0 (C.length c);
  Alcotest.(check bool) "hit rate well-defined when empty" true
    (C.hit_rate (C.create ()) = 0.0)

(* --- capacity split --- *)

(* The stripes hold exactly [capacity] between them, for capacities
   that the default 8 stripes do not divide and for ones below 8. *)
let test_capacity_split () =
  List.iter
    (fun capacity ->
      let c = C.create ~capacity () in
      for i = 1 to max 1000 (4 * capacity) do
        ignore
          (C.admit c ~instance:"i" ~qkey:(string_of_int i) ~version:V.static
             ~k:1 ~len:1 ~cost:9 ~now:0.0 [| i |])
      done;
      Alcotest.(check int)
        (Printf.sprintf "capacity %d filled exactly" capacity)
        capacity (C.length c))
    [ 1; 3; 12; 100; 4096 ]

let test_prefix () =
  let a = [| 1; 2; 3; 4 |] in
  Alcotest.(check (list int)) "k below length" [ 1; 2 ] (C.prefix a ~k:2);
  Alcotest.(check (list int)) "k at length" [ 1; 2; 3; 4 ] (C.prefix a ~k:4);
  Alcotest.(check (list int)) "k past length" [ 1; 2; 3; 4 ] (C.prefix a ~k:9);
  Alcotest.(check (list int)) "k = 0" [] (C.prefix a ~k:0);
  Alcotest.(check (list int)) "empty" [] (C.prefix [||] ~k:3)

(* --- model check: one stripe against a reference exact LRU --- *)

(* The reference keeps its entries in a list ordered by last touch,
   most recent first, and applies the cache's documented rules:
   consistency refusal, prefix
   coverage, cost bypass, monotone supersession, and eviction of the
   least recently touched entry once over capacity. *)
module Model = struct
  type entry = {
    version : V.t;
    k : int;
    len : int;
    payload : int;
    hits : int;
  }

  type t = {
    cap : int;
    mutable lru : (int * entry) list;
    mutable hits : int;
    mutable misses : int;
    mutable stale : int;
    mutable admits : int;
    mutable bypasses : int;
    mutable evictions : int;
  }

  let create cap =
    { cap; lru = []; hits = 0; misses = 0; stale = 0; admits = 0;
      bypasses = 0; evictions = 0 }

  let min_cost = 2
  let drop m key = m.lru <- List.remove_assoc key m.lru

  let find m ~key ~current ~consistency ~k =
    match List.assoc_opt key m.lru with
    | None ->
        m.misses <- m.misses + 1;
        `Miss
    | Some e when not (Cons.admits ~current ~entry:e.version consistency) ->
        m.stale <- m.stale + 1;
        `Stale
    | Some e when k <= e.k || e.len < e.k ->
        let e = { e with hits = e.hits + 1 } in
        m.lru <- (key, e) :: List.remove_assoc key m.lru;
        m.hits <- m.hits + 1;
        `Hit (e.payload, e.hits)
    | Some _ ->
        m.misses <- m.misses + 1;
        `Miss

  let admit m ~key ~version ~k ~len ~cost ~payload =
    let install () =
      drop m key;
      m.lru <- (key, { version; k; len; payload; hits = 0 }) :: m.lru;
      if List.length m.lru > m.cap then begin
        m.lru <- List.filteri (fun i _ -> i < m.cap) m.lru;
        m.evictions <- m.evictions + 1
      end;
      m.admits <- m.admits + 1;
      `Admitted
    in
    if cost < min_cost then begin
      m.bypasses <- m.bypasses + 1;
      `Bypassed
    end
    else
      match List.assoc_opt key m.lru with
      | None -> install ()
      | Some e when V.newer_than e.version version -> `Superseded
      | Some e when V.equal e.version version && e.k >= k -> `Superseded
      | Some _ -> install ()

  let invalidate m ~key =
    if List.mem_assoc key m.lru then begin
      drop m key;
      m.evictions <- m.evictions + 1;
      true
    end
    else false

  let clear m =
    m.evictions <- m.evictions + List.length m.lru;
    m.lru <- []
end

type model_op =
  | Admit of { key : int; seq : int; k : int; len : int; cost : int }
  | Find of { key : int; seq : int; k : int; level : int }
  | Invalidate of int
  | Clear

let print_model_op = function
  | Admit { key; seq; k; len; cost } ->
      Printf.sprintf "admit(key=%d seq=%d k=%d len=%d cost=%d)" key seq k len
        cost
  | Find { key; seq; k; level } ->
      Printf.sprintf "find(key=%d seq=%d k=%d level=%d)" key seq k level
  | Invalidate key -> Printf.sprintf "invalidate(%d)" key
  | Clear -> "clear"

let gen_model_op =
  let open QCheck.Gen in
  let key = int_bound 5 and seq = int_bound 3 and k = int_range 1 4 in
  frequency
    [
      ( 8,
        let+ key = key and+ seq = seq and+ k = k and+ len = int_range 0 4
        and+ cost = int_bound 4 in
        Admit { key; seq; k; len; cost } );
      ( 8,
        let+ key = key and+ seq = seq and+ k = k and+ level = int_bound 2 in
        Find { key; seq; k; level } );
      (1, map (fun key -> Invalidate key) key);
      (1, return Clear);
    ]

let arb_model_run =
  QCheck.make
    ~print:(fun (cap, ops) ->
      Printf.sprintf "capacity %d: %s" cap
        (String.concat "; " (List.map print_model_op ops)))
    QCheck.Gen.(pair (int_range 1 4) (list_size (int_range 1 80) gen_model_op))

let consistency_of ~level ~seq =
  match level with
  | 0 -> Cons.Any
  | 1 -> Cons.At_least (max 0 (seq - 1))
  | _ -> Cons.Max_lag 1

let prop_stripe_matches_model =
  QCheck.Test.make ~count:500 ~name:"one stripe matches an exact-LRU model"
    arb_model_run (fun (cap, ops) ->
      let evicted = ref 0 in
      let c =
        C.create ~stripes:1 ~capacity:cap ~min_cost:Model.min_cost
          ~on_evict:(fun () -> incr evicted) ()
      in
      let m = Model.create cap in
      let next_payload = ref 0 in
      let qkey = string_of_int in
      let expect what b = if not b then QCheck.Test.fail_reportf "%s" what in
      List.iter
        (fun op ->
          (match op with
          | Admit { key; seq; k; len; cost } ->
              incr next_payload;
              let version = v ~term:0 ~seq in
              let got =
                C.admit c ~instance:"m" ~qkey:(qkey key) ~version ~k ~len ~cost
                  ~now:0.0 !next_payload
              in
              let want =
                Model.admit m ~key ~version ~k ~len ~cost ~payload:!next_payload
              in
              expect "admit outcome" (got = want)
          | Find { key; seq; k; level } ->
              let got =
                match
                  C.find c ~instance:"m" ~qkey:(qkey key)
                    ~current:(v ~term:0 ~seq)
                    ~consistency:(consistency_of ~level ~seq) ~k ~now:0.0 ()
                with
                | C.Hit e -> `Hit (e.C.e_payload, e.C.e_hits)
                | C.Stale -> `Stale
                | C.Miss -> `Miss
              in
              let want =
                Model.find m ~key ~current:(v ~term:0 ~seq)
                  ~consistency:(consistency_of ~level ~seq) ~k
              in
              expect "find outcome" (got = want)
          | Invalidate key ->
              expect "invalidate outcome"
                (C.invalidate c ~instance:"m" ~qkey:(qkey key)
                = Model.invalidate m ~key)
          | Clear ->
              C.clear c;
              Model.clear m);
          let st = C.stats c and n = List.length m.Model.lru in
          expect "on_evict count" (!evicted = m.Model.evictions);
          expect "stats"
            (st
            = {
                C.st_hits = m.Model.hits;
                st_misses = m.Model.misses;
                st_stale = m.Model.stale;
                st_admits = m.Model.admits;
                st_bypasses = m.Model.bypasses;
                st_evictions = m.Model.evictions;
                st_entries = n;
              });
          expect "length" (C.length c = n);
          expect "list walks" (C.stripe_walks c = [| (n, n, n) |]))
        ops;
      true)

(* --- Client facade: transparency and prefix laws --- *)

let mk_intervals n seed =
  let rng = Rng.create seed in
  Array.init n (fun i ->
      let lo = Rng.uniform rng in
      let hi = Float.min 1.0 (lo +. 0.05 +. (0.4 *. Rng.uniform rng)) in
      I.make ~id:(i + 1) ~lo ~hi
        ~weight:(float_of_int (i + 1) +. (0.5 *. Rng.uniform rng))
        ())

let ids resp = List.map (fun (e : I.t) -> e.I.id) resp.Svc.Response.answers

let test_client_prefix_law () =
  let elems = mk_intervals 500 11 in
  let inst = IInst.Topk_t2.build ~params:(IInst.params ()) elems in
  let registry = Svc.Registry.create () in
  let h =
    Svc.Registry.register registry ~name:"itv" (module IInst.Topk_t2) inst
  in
  let metrics = Svc.Metrics.create () in
  let client = Svc.Client.create ~metrics () in
  let ch = Svc.Client.attach client (Svc.Client.direct h) in
  let off = Svc.Client.create ~cache:false () in
  let ch_off = Svc.Client.attach off (Svc.Client.direct h) in
  let q = 0.41 in
  let r8 = Svc.Client.query_sync ch q ~k:8 in
  Alcotest.(check int) "first query computes" 0
    (Svc.Metrics.Counter.get metrics.Svc.Metrics.cache_hits);
  let r8' = Svc.Client.query_sync ch q ~k:8 in
  Alcotest.(check int) "repeat hits" 1
    (Svc.Metrics.Counter.get metrics.Svc.Metrics.cache_hits);
  Alcotest.(check (list int)) "hit equals computed" (ids r8) (ids r8');
  Alcotest.(check int) "hit charges zero I/O" 0
    (Svc.Response.cost r8').Topk_em.Stats.ios;
  (* Prefix law: the k=8 entry serves k=3 with the same leading
     answers a fresh computation produces. *)
  let r3 = Svc.Client.query_sync ch q ~k:3 in
  Alcotest.(check int) "prefix hit" 2
    (Svc.Metrics.Counter.get metrics.Svc.Metrics.cache_hits);
  let r3_off = Svc.Client.query_sync ch_off q ~k:3 in
  Alcotest.(check (list int)) "prefix equals cache-off answer" (ids r3_off)
    (ids r3);
  (* Cache-off equals cache-on at every k exercised. *)
  let r8_off = Svc.Client.query_sync ch_off q ~k:8 in
  Alcotest.(check (list int)) "cache-on == cache-off" (ids r8_off) (ids r8);
  (* Budgeted queries bypass the cache in both directions: the cached
     complete answer must not shadow the certified prefix. *)
  let starved =
    Svc.Client.query_sync ch q ~k:8 ~limits:(Svc.Limits.make ~budget:1 ())
  in
  Alcotest.(check bool) "budget produces a cutoff" true
    (Svc.Response.is_partial starved);
  Alcotest.(check int) "budgeted query did not hit" 2
    (Svc.Metrics.Counter.get metrics.Svc.Metrics.cache_hits)

(* --- replicated group: a Client in front == the bare group across a
   failover --- *)

module G = Topk_repl.Group.Make (IInst.Topk_t2)

let mk_group base =
  let plan = Topk_repl.Transport.clean ~seed:31 in
  G.create ~params:(IInst.params ()) ~plan ~quorum:2 ~name:"law" ~replicas:2
    base

(* Cached replicated reads: [G.read] attached to a Client as an
   endpoint, versioned by the group's (term, head).  [None] is a
   refusal, as from [G.read]. *)
let cached_reader ~metrics g =
  let client = Svc.Client.create ~cache_min_cost:1 ~metrics () in
  let h =
    Svc.Client.attach client
      ~version:(fun () -> V.make ~term:(G.term g) ~seq:(G.head g))
      (Svc.Client.endpoint ~name:"law" (fun ?limits:_ ?consistency q ~k ->
           match G.read ?consistency g q ~k with
           | Some r -> r
           | None ->
               {
                 Svc.Response.answers = [];
                 status = Svc.Response.Failed Svc.Error.Shed;
                 summary = Svc.Response.zero_summary;
                 trace_id = None;
                 latency = 0.0;
                 worker = -1;
                 instance = "law";
                 k;
                 seq_token = None;
               }))
  in
  fun ?consistency q ~k ->
    match Svc.Client.query_sync ?consistency h q ~k with
    | { Svc.Response.status = Svc.Response.Failed Svc.Error.Shed; _ } -> None
    | r -> Some r

let test_group_cache_equivalence () =
  let n = 60 in
  let base = mk_intervals n 21 in
  let metrics = Svc.Metrics.create () in
  let gc = mk_group base and gu = mk_group base in
  let read_cached = cached_reader ~metrics gc in
  let live = ref (Array.to_list base) in
  let wrng = Rng.create 77 and qrng = Rng.create 78 in
  let next_id = ref (n + 1) in
  let queries_checked = ref 0 in
  for step = 1 to 12 do
    (* One write applied to both groups, then settle so every node is
       at the head. *)
    let rng = wrng in
    let lo = Rng.uniform rng in
    let hi = Float.min 1.0 (lo +. 0.3) in
    let e =
      I.make ~id:!next_id ~lo ~hi
        ~weight:(float_of_int !next_id +. 0.25)
        ()
    in
    incr next_id;
    live := e :: !live;
    ignore (G.insert gc e);
    ignore (G.insert gu e);
    Alcotest.(check bool) "cached group settles" true (G.settle gc);
    Alcotest.(check bool) "uncached group settles" true (G.settle gu);
    (* Fail both primaries mid-run: the cached group's term bump must
       fence its pre-failover entries, not corrupt its answers. *)
    if step = 6 then begin
      ignore (G.fail_primary gc);
      ignore (G.fail_primary gu);
      Alcotest.(check bool) "cached group recovers" true (G.settle gc);
      Alcotest.(check bool) "uncached group recovers" true (G.settle gu)
    end;
    (* A burst of repeated queries: the cached group serves hits, the
       uncached group recomputes, and the answers must agree with the
       from-scratch oracle and with each other. *)
    for _ = 1 to 6 do
      (* Draw from a small pool so queries repeat within a head — the
         repeats are what the cached group serves as hits. *)
      let q = float_of_int (1 + Rng.int qrng 4) /. 5.0 in
      let want =
        List.sort compare
          (List.map
             (fun (e : I.t) -> e.I.id)
             (Topk_util.Select.top_k ~cmp:I.compare_weight 5
                (List.filter (fun e -> I.contains e q) !live)))
      in
      match (read_cached q ~k:5, G.read gu q ~k:5) with
      | Some rc, Some ru ->
          incr queries_checked;
          Alcotest.(check (list int)) "cached == oracle" want
            (List.sort compare (ids rc));
          Alcotest.(check (list int)) "uncached == oracle" want
            (List.sort compare (ids ru))
      | _ -> Alcotest.fail "a settled group refused a read"
    done
  done;
  Alcotest.(check bool) "burst produced hits"
    true
    (Svc.Metrics.Counter.get metrics.Svc.Metrics.cache_hits > 0);
  Alcotest.(check int) "all reads checked" 72 !queries_checked

(* --- stale refusal under a read-your-writes token --- *)

let test_group_stale_refusal () =
  let n = 40 in
  let base = mk_intervals n 51 in
  let metrics = Svc.Metrics.create () in
  let g = mk_group base in
  let read = cached_reader ~metrics g in
  let q = 0.5 in
  let e1 = I.make ~id:(n + 1) ~lo:0.0 ~hi:1.0 ~weight:1000.0 () in
  let s1 = G.write_seq (G.insert g e1) in
  Alcotest.(check bool) "settled" true (G.settle g);
  (* Warm the cache at s1. *)
  ignore (read q ~k:5);
  (match read q ~k:5 with
  | Some r ->
      Alcotest.(check int) "warm hit at s1" 0
        (Svc.Response.cost r).Topk_em.Stats.ios;
      Alcotest.(check (option int)) "hit carries the entry's seq" (Some s1)
        (Svc.Response.seq_token r)
  | None -> Alcotest.fail "warm read refused");
  let hits_before = Svc.Metrics.Counter.get metrics.Svc.Metrics.cache_hits in
  (* A heavier element lands at s2.  A read demanding At_least s2 must
     refuse the s1 entry and recompute — serving it would hide e2. *)
  let e2 = I.make ~id:(n + 2) ~lo:0.0 ~hi:1.0 ~weight:2000.0 () in
  let s2 = G.write_seq (G.insert g e2) in
  Alcotest.(check bool) "settled again" true (G.settle g);
  (match read ~consistency:(Svc.Consistency.At_least s2) q ~k:5 with
  | Some r -> (
      match Svc.Response.seq_token r with
      | Some tok ->
          Alcotest.(check bool) "token honors the floor" true (tok >= s2);
          Alcotest.(check bool) "answer sees the new element" true
            (List.mem (n + 2) (ids r))
      | None -> Alcotest.fail "replicated read lost its token")
  | None -> Alcotest.fail "satisfiable token refused");
  Alcotest.(check int) "the stale entry did not serve" hits_before
    (Svc.Metrics.Counter.get metrics.Svc.Metrics.cache_hits);
  (* The recomputed answer re-warmed the cache at s2. *)
  match read q ~k:5 with
  | Some r ->
      Alcotest.(check int) "re-warmed hit" 0
        (Svc.Response.cost r).Topk_em.Stats.ios;
      Alcotest.(check (option int)) "at the new seq" (Some s2)
        (Svc.Response.seq_token r)
  | None -> Alcotest.fail "re-warmed read refused"

(* --- striped race across 4 domains --- *)

let test_striped_race () =
  let c = C.create ~stripes:4 ~capacity:64 ~min_cost:1 () in
  let keys = Array.init 16 (fun i -> Printf.sprintf "k%d" i) in
  (* Per-key payload is a function of the key alone, so any torn
     publication shows up as a wrong payload on a hit. *)
  let payload_of i = [ i; i * 10; i * 100 ] in
  let ops_per_domain = 5_000 in
  let bad = Atomic.make 0 in
  let worker seed () =
    let rng = Rng.create seed in
    for op = 1 to ops_per_domain do
      let i = Rng.int rng (Array.length keys) in
      let qkey = keys.(i) in
      match
        C.find c ~instance:"race" ~qkey ~current:V.static ~k:3
          ~now:(float_of_int op) ()
      with
      | C.Hit e ->
          if e.C.e_payload <> payload_of i then Atomic.incr bad
      | C.Stale -> Atomic.incr bad
      | C.Miss ->
          ignore
            (C.admit c ~instance:"race" ~qkey ~version:V.static ~k:3 ~len:3
               ~cost:9 ~now:(float_of_int op) (payload_of i));
          if Rng.uniform rng < 0.02 then
            ignore (C.invalidate c ~instance:"race" ~qkey)
    done
  in
  let domains =
    List.init 4 (fun d -> Domain.spawn (worker (1000 + (d * 7))))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "no torn or stale payloads" 0 (Atomic.get bad);
  Alcotest.(check bool) "capacity respected" true (C.length c <= 64);
  let st = C.stats c in
  Alcotest.(check int) "every lookup accounted" (4 * ops_per_domain)
    (st.C.st_hits + st.C.st_misses + st.C.st_stale);
  Alcotest.(check bool) "the race produced hits" true (st.C.st_hits > 0);
  (* Every stripe's recency list, walked either way, still links
     exactly the entries of its table. *)
  Array.iteri
    (fun i (entries, forward, backward) ->
      Alcotest.(check int) (Printf.sprintf "stripe %d forward" i) entries
        forward;
      Alcotest.(check int) (Printf.sprintf "stripe %d backward" i) entries
        backward)
    (C.stripe_walks c);
  (* The table is still coherent after the race. *)
  Array.iteri
    (fun i qkey ->
      match
        C.find c ~instance:"race" ~qkey ~current:V.static ~k:3 ~now:1e9 ()
      with
      | C.Hit e ->
          Alcotest.(check (list int))
            (Printf.sprintf "final payload %d" i)
            (payload_of i) e.C.e_payload
      | C.Miss -> ()
      | C.Stale -> Alcotest.fail "static entries cannot be stale")
    keys

let () =
  Alcotest.run "cache"
    [
      ( "unit",
        [
          Alcotest.test_case "version" `Quick test_version;
          Alcotest.test_case "consistency admits" `Quick
            test_consistency_admits;
          Alcotest.test_case "admission threshold" `Quick
            test_admission_threshold;
          Alcotest.test_case "prefix serving" `Quick test_prefix_serving;
          Alcotest.test_case "version supersession" `Quick test_supersede;
          Alcotest.test_case "lru eviction" `Quick test_lru;
          Alcotest.test_case "term fencing" `Quick test_term_fencing;
          Alcotest.test_case "invalidate and clear" `Quick
            test_invalidate_clear;
          Alcotest.test_case "capacity split holds exactly capacity" `Quick
            test_capacity_split;
          Alcotest.test_case "prefix of an array payload" `Quick test_prefix;
          QCheck_alcotest.to_alcotest prop_stripe_matches_model;
        ] );
      ( "laws",
        [
          Alcotest.test_case "client prefix + transparency" `Quick
            test_client_prefix_law;
          Alcotest.test_case "group cached == uncached across failover"
            `Quick test_group_cache_equivalence;
          Alcotest.test_case "stale refusal under At_least" `Quick
            test_group_stale_refusal;
          Alcotest.test_case "striped race across 4 domains" `Quick
            test_striped_race;
        ] );
    ]
