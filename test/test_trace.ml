(* Tests for the tracing + cost-certification layer (lib/trace).

   Covers the span recorder (tree shape, attrs, cost deltas, exception
   unwinding, the ring-buffer store, JSON export) and the certifier
   (normalizer shapes, fitting, the model registry, and the end-to-end
   contract: >= 1000 certified queries across Theorem 1, Theorem 2 and
   the sharded planner with zero violations, while a deliberately
   mis-charged test double IS flagged). *)

module Tr = Topk_trace.Trace
module Certify = Topk_trace.Certify
module Stats = Topk_em.Stats
module Rng = Topk_util.Rng
module Gen = Topk_util.Gen
module Interval = Topk_interval.Interval
module IInst = Topk_interval.Instances
module IP = Topk_interval.Problem
module Svc = Topk_service

(* Every test leaves tracing disabled and the store empty so tests do
   not leak state into each other (the store is process-global). *)
let with_tracing f =
  Tr.Store.set_capacity 512;
  Tr.enable ();
  Fun.protect
    ~finally:(fun () ->
      Tr.disable ();
      Tr.Store.clear ())
    f

let get_trace = function
  | Some (tr : Tr.t) -> tr
  | None -> Alcotest.fail "expected a recorded trace, got None"

(* --- recording --- *)

let test_disabled () =
  Tr.disable ();
  let before = Tr.Store.total () in
  let x, tr = Tr.with_root "off" (fun () -> 41 + 1) in
  Alcotest.(check int) "result passes through" 42 x;
  Alcotest.(check bool) "no trace when disabled" true (tr = None);
  Alcotest.(check int) "nothing stored" before (Tr.Store.total ());
  Alcotest.(check int) "with_span passthrough" 7
    (Tr.with_span "child" (fun () -> 7));
  (* no-ops, must not raise *)
  Tr.add_attr "x" (Tr.Int 1);
  Tr.event "e";
  Alcotest.(check bool) "no current trace" true (Tr.current_trace_id () = None)

let test_span_tree () =
  with_tracing (fun () ->
      let x, tr =
        Tr.with_root "root"
          ~attrs:[ ("instance", Tr.Str "t"); ("k", Tr.Int 5) ]
          (fun () ->
            let a =
              Tr.with_span "phase-a" (fun () ->
                  Tr.add_attr "rounds" (Tr.Int 3);
                  Tr.with_span "inner" (fun () -> 10))
            in
            Tr.event "pruned" ~attrs:[ ("shard", Tr.Int 2) ];
            a + Tr.with_span "phase-b" (fun () -> 1))
      in
      let tr = get_trace tr in
      Alcotest.(check int) "result" 11 x;
      Alcotest.(check string) "root name" "root" tr.Tr.root.Tr.name;
      Alcotest.(check int) "span count" 5 (Tr.span_count tr);
      Alcotest.(check (list string))
        "children in recording order"
        [ "phase-a"; "pruned"; "phase-b" ]
        (List.map (fun (s : Tr.span) -> s.Tr.name) tr.Tr.root.Tr.children);
      (match Tr.find_spans tr "inner" with
      | [ s ] ->
          Alcotest.(check bool) "inner closed" true (Float.is_finite s.Tr.t_end);
          Alcotest.(check bool) "duration >= 0" true (Tr.duration_us s >= 0.)
      | l -> Alcotest.failf "expected 1 'inner' span, got %d" (List.length l));
      (match Tr.find_spans tr "phase-a" with
      | [ s ] ->
          Alcotest.(check (option int)) "attr" (Some 3) (Tr.attr_int s "rounds")
      | _ -> Alcotest.fail "phase-a missing");
      (match Tr.find_spans tr "pruned" with
      | [ s ] ->
          Alcotest.(check (float 1e-9)) "event has zero duration" 0.
            (Tr.duration_us s);
          Alcotest.(check (option int)) "event attr" (Some 2)
            (Tr.attr_int s "shard")
      | _ -> Alcotest.fail "event missing");
      Alcotest.(check (option string))
        "root attr" (Some "t")
        (Tr.attr_str tr.Tr.root "instance");
      Alcotest.(check int) "stored once" 1 (Tr.Store.total ());
      Alcotest.(check bool) "find by id" true (Tr.Store.find tr.Tr.id <> None))

let test_add_attr_replaces () =
  with_tracing (fun () ->
      let (), tr =
        Tr.with_root "r" (fun () ->
            Tr.add_attr "x" (Tr.Int 1);
            Tr.add_attr "x" (Tr.Int 2))
      in
      let tr = get_trace tr in
      Alcotest.(check (option int)) "last write wins" (Some 2)
        (Tr.attr_int tr.Tr.root "x");
      Alcotest.(check int) "one attr entry" 1
        (List.length tr.Tr.root.Tr.attrs))

let test_cost_delta () =
  with_tracing (fun () ->
      let (), tr =
        Tr.with_root "r" (fun () ->
            Stats.charge_ios 3;
            Tr.with_span "child" (fun () -> Stats.charge_ios 7))
      in
      let tr = get_trace tr in
      (match Tr.find_spans tr "child" with
      | [ s ] ->
          Alcotest.(check int) "child sees only its own I/Os" 7
            s.Tr.cost.Stats.ios
      | _ -> Alcotest.fail "child missing");
      Alcotest.(check int) "root sees both" 10 tr.Tr.root.Tr.cost.Stats.ios)

let test_unwinding () =
  with_tracing (fun () ->
      let raised =
        try
          ignore
            (Tr.with_root "boom" (fun () ->
                 Tr.with_span "inner" (fun () -> failwith "kaboom")));
          false
        with Failure msg -> msg = "kaboom"
      in
      Alcotest.(check bool) "exception propagates" true raised;
      (* The trace must still be completed and published. *)
      match Tr.Store.recent ~limit:1 () with
      | [ tr ] ->
          Alcotest.(check string) "root name" "boom" tr.Tr.root.Tr.name;
          Alcotest.(check bool) "root closed" true
            (Float.is_finite tr.Tr.root.Tr.t_end);
          (match Tr.find_spans tr "inner" with
          | [ s ] ->
              Alcotest.(check bool) "inner closed despite raise" true
                (Float.is_finite s.Tr.t_end)
          | _ -> Alcotest.fail "inner missing")
      | _ -> Alcotest.fail "trace not stored after raise")

let test_parent_link () =
  with_tracing (fun () ->
      let seen = ref None in
      let (), tr =
        Tr.with_root ~parent:42 "leg" (fun () ->
            seen := Tr.current_trace_id ())
      in
      let tr = get_trace tr in
      Alcotest.(check (option int)) "parent recorded" (Some 42) tr.Tr.parent;
      Alcotest.(check (option int))
        "current_trace_id inside root" (Some tr.Tr.id) !seen;
      Alcotest.(check bool) "closed after" true
        (Tr.current_trace_id () = None))

let test_nested_root_degrades () =
  with_tracing (fun () ->
      let inner_tr = ref None in
      let (), tr =
        Tr.with_root "outer" (fun () ->
            let (), t = Tr.with_root "would-be-root" (fun () -> ()) in
            inner_tr := Some t)
      in
      let tr = get_trace tr in
      Alcotest.(check bool) "inner root returns None" true
        (!inner_tr = Some None);
      Alcotest.(check int) "degraded to child span" 2 (Tr.span_count tr);
      Alcotest.(check int) "only one trace stored" 1 (Tr.Store.total ()))

(* --- store --- *)

let test_store_ring () =
  with_tracing (fun () ->
      Tr.Store.set_capacity 3;
      for i = 1 to 5 do
        ignore (Tr.with_root "t" ~attrs:[ ("i", Tr.Int i) ] (fun () -> ()))
      done;
      Alcotest.(check int) "ring holds capacity" 3 (Tr.Store.length ());
      Alcotest.(check int) "total counts evictions" 5 (Tr.Store.total ());
      let order =
        Tr.Store.recent ()
        |> List.map (fun (t : Tr.t) ->
               Option.get (Tr.attr_int t.Tr.root "i"))
      in
      Alcotest.(check (list int)) "most recent first" [ 5; 4; 3 ] order;
      let newest = List.hd (Tr.Store.recent ~limit:1 ()) in
      Alcotest.(check bool) "find held" true
        (Tr.Store.find newest.Tr.id <> None);
      Tr.Store.clear ();
      Alcotest.(check int) "clear empties" 0 (Tr.Store.length ());
      Alcotest.check_raises "capacity must be positive"
        (Invalid_argument "Trace.Store.set_capacity: capacity must be positive")
        (fun () -> Tr.Store.set_capacity 0))

(* A tiny structural JSON validator: enough to catch unbalanced
   brackets, bare non-finite floats and unescaped quotes without
   pulling in a JSON dependency. *)
let json_well_formed s =
  let depth = ref 0 and in_str = ref false and esc = ref false and ok = ref true in
  String.iter
    (fun ch ->
      if !esc then esc := false
      else if !in_str then (
        if ch = '\\' then esc := true else if ch = '"' then in_str := false)
      else
        match ch with
        | '"' -> in_str := true
        | '{' | '[' -> incr depth
        | '}' | ']' ->
            decr depth;
            if !depth < 0 then ok := false
        | 'n' | 'i' ->
            (* bare nan/inf outside a string is invalid JSON; "null" is
               the only bare token starting with n we emit *)
            ()
        | _ -> ())
    s;
  !ok && !depth = 0 && not !in_str

let test_json () =
  with_tracing (fun () ->
      let (), tr =
        Tr.with_root "q\"uote"
          ~attrs:
            [
              ("f", Tr.Float 1.5);
              ("nan", Tr.Float Float.nan);
              ("inf", Tr.Float Float.infinity);
              ("s", Tr.Str "a\"b\\c");
              ("b", Tr.Bool true);
            ]
          (fun () -> Tr.with_span "child" (fun () -> Stats.charge_ios 2))
      in
      let tr = get_trace tr in
      let js = Tr.to_json tr in
      Alcotest.(check bool) "single line" false (String.contains js '\n');
      Alcotest.(check bool) "structurally valid" true (json_well_formed js);
      let has sub =
        let n = String.length sub and m = String.length js in
        let rec go i = i + n <= m && (String.sub js i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "nan quoted" true (has "\"nan\"");
      Alcotest.(check bool) "inf quoted" true (has "\"inf\"");
      Alcotest.(check bool) "bool literal" true (has "true");
      Alcotest.(check bool) "child present" true (has "\"child\"");
      (* export: one JSON object per line, each well-formed *)
      ignore (Tr.with_root "second" (fun () -> ()));
      let lines =
        Tr.Store.export ()
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
      in
      Alcotest.(check int) "one line per trace" 2 (List.length lines);
      List.iter
        (fun l ->
          Alcotest.(check bool) "line valid" true (json_well_formed l))
        lines)

(* --- certifier: shapes and fitting --- *)

let mk_model ?(theorem = Certify.T1) ?(shards = 1) ?(c = 1.0) ?(margin = 2.0)
    () =
  {
    Certify.instance = "m";
    theorem;
    n = 1000;
    b = 64;
    shards;
    q_pri = 3.;
    q_max = 2.;
    c;
    margin;
  }

let test_normalizer_shapes () =
  let fcheck = Alcotest.(check (float 1e-9)) in
  let out k = (float_of_int k /. 64.) +. 1. in
  let m1 = mk_model ~theorem:Certify.T1 () in
  fcheck "T1 = q_pri + k/B + 1" (3. +. out 128)
    (Certify.normalizer m1 ~k:128 ~visited:99);
  let m2 = mk_model ~theorem:Certify.T2 () in
  fcheck "T2 adds q_max" (3. +. 2. +. out 128)
    (Certify.normalizer m2 ~k:128 ~visited:0);
  let ms = mk_model ~theorem:Certify.Sharded ~shards:4 () in
  fcheck "sharded, 2 visited"
    ((4. *. 2.) +. (2. *. (3. +. 2. +. out 64)) +. out 64)
    (Certify.normalizer ms ~k:64 ~visited:2);
  fcheck "sharded clamps visited to >= 1"
    ((4. *. 2.) +. (1. *. (3. +. 2. +. out 64)) +. out 64)
    (Certify.normalizer ms ~k:64 ~visited:0);
  Alcotest.(check string) "theorem names"
    "theorem1/theorem2/sharded/dynamic(theorem2)"
    (String.concat "/"
       (List.map Certify.theorem_name
          [ Certify.T1; Certify.T2; Certify.Sharded;
            Certify.Dynamic Certify.T2 ]))

let test_fit_and_check () =
  let m =
    Certify.fit ~instance:"fitme" ~theorem:Certify.T1 ~n:1000 ~q_pri:3.
      ~q_max:0.
      [ (64, None, 8); (64, None, 16); (640, None, 22) ]
  in
  (* norms: k=64 -> 3 + 2 = 5; k=640 -> 3 + 11 = 14.
     ratios: 1.6, 3.2, 22/14 ~ 1.571 -> c = 3.2. *)
  Alcotest.(check (float 1e-9)) "c is max ratio" 3.2 m.Certify.c;
  Alcotest.(check (float 1e-9)) "bound = c*margin*norm" (3.2 *. 2.0 *. 5.)
    (Certify.bound m ~k:64 ~visited:1);
  let v_ok = Certify.check m ~k:64 ~measured:32 () in
  Alcotest.(check bool) "at the bound is ok" true v_ok.Certify.v_ok;
  let v_bad = Certify.check m ~k:64 ~measured:33 () in
  Alcotest.(check bool) "one past the bound is flagged" false
    v_bad.Certify.v_ok;
  Alcotest.check_raises "empty samples"
    (Invalid_argument "Certify.fit: empty sample list") (fun () ->
      ignore
        (Certify.fit ~instance:"x" ~theorem:Certify.T1 ~n:10 ~q_pri:1.
           ~q_max:1. []));
  Alcotest.check_raises "margin < 1"
    (Invalid_argument "Certify.fit: margin must be >= 1") (fun () ->
      ignore
        (Certify.fit ~instance:"x" ~theorem:Certify.T1 ~n:10 ~margin:0.5
           ~q_pri:1. ~q_max:1.
           [ (1, None, 1) ]))

let test_registry_and_counters () =
  Certify.clear_models ();
  Certify.reset_counters ();
  Alcotest.(check bool) "evaluate without model" true
    (Certify.evaluate ~instance:"ghost" ~k:1 ~measured:1 () = None);
  Alcotest.(check int) "no model, nothing checked" 0 (Certify.checked ());
  let m = { (mk_model ~c:2.0 ()) with Certify.instance = "reg" } in
  Certify.register m;
  Alcotest.(check bool) "lookup" true (Certify.lookup "reg" = Some m);
  Alcotest.(check int) "models lists it" 1 (List.length (Certify.models ()));
  (match Certify.evaluate ~instance:"reg" ~k:64 ~measured:10 () with
  | Some v -> Alcotest.(check bool) "within bound" true v.Certify.v_ok
  | None -> Alcotest.fail "model registered but evaluate returned None");
  (match Certify.evaluate ~instance:"reg" ~k:64 ~measured:1_000_000 () with
  | Some v -> Alcotest.(check bool) "violation verdict" false v.Certify.v_ok
  | None -> Alcotest.fail "evaluate returned None");
  Alcotest.(check int) "checked counts both" 2 (Certify.checked ());
  Alcotest.(check int) "one violation" 1 (Certify.violations ());
  Certify.reset_counters ();
  Alcotest.(check int) "reset" 0 (Certify.checked ());
  Certify.clear_models ();
  Alcotest.(check int) "clear_models" 0 (List.length (Certify.models ()))

let test_certify_trace_requires_attrs () =
  Certify.clear_models ();
  Certify.register { (mk_model ()) with Certify.instance = "attrs" };
  with_tracing (fun () ->
      let (), t1 = Tr.with_root "no-attrs" (fun () -> ()) in
      Alcotest.(check bool) "no instance/k attrs -> None" true
        (Certify.certify_trace (get_trace t1) = None);
      let (), t2 =
        Tr.with_root "half" ~attrs:[ ("instance", Tr.Str "attrs") ]
          (fun () -> ())
      in
      Alcotest.(check bool) "missing k -> None" true
        (Certify.certify_trace (get_trace t2) = None);
      let (), t3 =
        Tr.with_root "full"
          ~attrs:[ ("instance", Tr.Str "nomodel"); ("k", Tr.Int 3) ]
          (fun () -> ())
      in
      Alcotest.(check bool) "no registered model -> None" true
        (Certify.certify_trace (get_trace t3) = None));
  Certify.clear_models ()

(* --- certifier: end-to-end contract --- *)

(* Fit the cost models exactly the way `topk trace` does: a small
   calibration workload with tracing off, c = max measured/normalizer. *)
let logb x =
  let b = float_of_int (Topk_em.Config.current ()).Topk_em.Config.b in
  Float.max 1. (log (Float.max 2. x) /. log (Float.max 2. b))

let fit_direct ~instance ~theorem ~n ~ks cal query =
  let samples =
    List.concat_map
      (fun kc ->
        Array.to_list cal
        |> List.map (fun q ->
               let (_ : int), c =
                 Stats.measure (fun () -> List.length (query q kc))
               in
               (kc, None, c.Stats.ios)))
      ks
  in
  Certify.register
    (Certify.fit ~instance ~theorem ~n ~q_pri:(logb (float_of_int n))
       ~q_max:(logb (float_of_int n))
       samples)

module ISS = Topk_shard.Shard_set.Make (IInst.Topk_t2) (Topk_interval.Slab_max)
module IScatter = Topk_shard.Scatter.Make (ISS) (IInst.Topk_t2)

(* >= 1000 certified queries across all three theorem shapes, zero
   violations — the acceptance bar for the certification layer. *)
let test_certified_workload () =
  Certify.clear_models ();
  Certify.reset_counters ();
  let n = 4000 and k = 32 and shards = 3 and nq = 340 in
  let rng = Rng.create 91_001 in
  let elems =
    Interval.of_spans rng (Gen.intervals rng ~shape:Gen.Mixed_intervals ~n)
  in
  let params = IInst.params () in
  let t1 = IInst.Topk_t1.build ~params elems in
  let t2 = IInst.Topk_t2.build ~params elems in
  let set =
    ISS.of_elems ~params
      ~strategy:(Topk_shard.Partitioner.Range IP.weight)
      ~shards elems
  in
  let pool = Svc.Executor.create ~workers:2 () in
  let registry = Svc.Registry.create () in
  let sc = IScatter.create pool registry ~name:"itv-cert" set in
  Fun.protect ~finally:(fun () -> Svc.Executor.shutdown pool) @@ fun () ->
  let cal = Gen.stab_queries rng ~n:24 in
  let ks = List.sort_uniq Int.compare [ 1; k / 2; k ] in
  fit_direct ~instance:"t1-cert" ~theorem:Certify.T1 ~n ~ks cal (fun q kc ->
      IInst.Topk_t1.query t1 q ~k:kc);
  fit_direct ~instance:"t2-cert" ~theorem:Certify.T2 ~n ~ks cal (fun q kc ->
      IInst.Topk_t2.query t2 q ~k:kc);
  let n_shard = (n + shards - 1) / shards in
  let shard_samples =
    List.concat_map
      (fun kc ->
        Array.to_list cal
        |> List.map (fun q ->
               let r = IScatter.query sc q ~k:kc in
               (kc, Some r.IScatter.fanout, r.IScatter.cost.Stats.ios)))
      ks
  in
  Certify.register
    (Certify.fit ~instance:"itv-cert" ~theorem:Certify.Sharded ~n:n_shard
       ~shards ~margin:3.0
       ~q_pri:(logb (float_of_int n_shard))
       ~q_max:(logb (float_of_int n_shard))
       shard_samples);
  (* Production phase: tracing on, every query certified.  Mix k values
     so the check exercises the k/B output term, not just one point. *)
  with_tracing (fun () ->
      let queries = Gen.stab_queries rng ~n:nq in
      let kprod = [| 1; k / 4; k / 2; k |] in
      Array.iteri
        (fun i q ->
          let kq = kprod.(i mod Array.length kprod) in
          let certify_direct instance query =
            let (_ : int), tr =
              Tr.with_root "test.query"
                ~attrs:[ ("instance", Tr.Str instance); ("k", Tr.Int kq) ]
                (fun () -> List.length (query q ~k:kq))
            in
            match Certify.certify_trace (get_trace tr) with
            | Some _ -> ()
            | None -> Alcotest.failf "%s: certify_trace returned None" instance
          in
          certify_direct "t1-cert" (IInst.Topk_t1.query t1);
          certify_direct "t2-cert" (IInst.Topk_t2.query t2);
          let r = IScatter.query sc q ~k:kq in
          match
            Certify.evaluate ~instance:"itv-cert" ~k:kq
              ~visited:r.IScatter.fanout ~measured:r.IScatter.cost.Stats.ios
              ()
          with
          | Some _ -> ()
          | None -> Alcotest.fail "sharded model missing")
        queries;
      Alcotest.(check bool)
        (Printf.sprintf ">= 1000 certified queries (got %d)"
           (Certify.checked ()))
        true
        (Certify.checked () >= 1000);
      Alcotest.(check int)
        (Printf.sprintf "zero violations over %d checks" (Certify.checked ()))
        0 (Certify.violations ()));
  Certify.clear_models ()

(* A structure that lies about its cost: it answers correctly but
   charges far more I/Os than the theorem allows (e.g. a buggy
   implementation scanning a whole slab per ladder round).  The
   certifier must flag it — this is the detection path that makes the
   certificates worth anything. *)
let test_mischarged_double_flagged () =
  Certify.clear_models ();
  Certify.reset_counters ();
  let n = 2000 and k = 16 in
  let rng = Rng.create 91_002 in
  let elems =
    Interval.of_spans rng (Gen.intervals rng ~shape:Gen.Mixed_intervals ~n)
  in
  let t1 = IInst.Topk_t1.build ~params:(IInst.params ()) elems in
  let cal = Gen.stab_queries rng ~n:16 in
  (* Fit the model on the honest structure... *)
  fit_direct ~instance:"double" ~theorem:Certify.T1 ~n ~ks:[ 1; k ] cal
    (fun q kc -> IInst.Topk_t1.query t1 q ~k:kc);
  let m = Option.get (Certify.lookup "double") in
  (* ...then serve queries through a double that over-charges by well
     more than the fitted margin. *)
  let overhead =
    2 + int_of_float (Certify.bound m ~k ~visited:1)
  in
  let dishonest q ~k =
    let r = IInst.Topk_t1.query t1 q ~k in
    Stats.charge_ios overhead;
    r
  in
  with_tracing (fun () ->
      let q = cal.(0) in
      let (_ : int), tr =
        Tr.with_root "double.query"
          ~attrs:[ ("instance", Tr.Str "double"); ("k", Tr.Int k) ]
          (fun () -> List.length (dishonest q ~k))
      in
      match Certify.certify_trace (get_trace tr) with
      | None -> Alcotest.fail "no verdict for the double"
      | Some v ->
          Alcotest.(check bool) "mis-charged double is flagged" false
            v.Certify.v_ok;
          Alcotest.(check bool) "measured exceeds bound" true
            (float_of_int v.Certify.v_measured > v.Certify.v_bound);
          Alcotest.(check int) "violation counted" 1 (Certify.violations ());
          (* the honest structure under the same model still passes *)
          let (_ : int), tr2 =
            Tr.with_root "honest.query"
              ~attrs:[ ("instance", Tr.Str "double"); ("k", Tr.Int k) ]
              (fun () -> List.length (IInst.Topk_t1.query t1 q ~k))
          in
          (match Certify.certify_trace (get_trace tr2) with
          | Some v2 ->
              Alcotest.(check bool) "honest query passes" true v2.Certify.v_ok
          | None -> Alcotest.fail "no verdict for honest query");
          Alcotest.(check int) "still exactly one violation" 1
            (Certify.violations ()));
  Certify.clear_models ();
  Certify.reset_counters ()

let () =
  Alcotest.run "trace"
    [
      ( "recording",
        [
          Alcotest.test_case "disabled is a no-op" `Quick test_disabled;
          Alcotest.test_case "span tree shape + attrs" `Quick test_span_tree;
          Alcotest.test_case "add_attr replaces" `Quick test_add_attr_replaces;
          Alcotest.test_case "cost deltas nest" `Quick test_cost_delta;
          Alcotest.test_case "unwinds on exceptions" `Quick test_unwinding;
          Alcotest.test_case "parent link + current id" `Quick
            test_parent_link;
          Alcotest.test_case "nested root degrades to span" `Quick
            test_nested_root_degrades;
        ] );
      ( "store",
        [
          Alcotest.test_case "ring buffer semantics" `Quick test_store_ring;
          Alcotest.test_case "JSON export" `Quick test_json;
        ] );
      ( "certify",
        [
          Alcotest.test_case "normalizer shapes" `Quick test_normalizer_shapes;
          Alcotest.test_case "fit + check" `Quick test_fit_and_check;
          Alcotest.test_case "registry + counters" `Quick
            test_registry_and_counters;
          Alcotest.test_case "certify_trace needs attrs + model" `Quick
            test_certify_trace_requires_attrs;
          Alcotest.test_case "1000+ queries certified, 0 violations" `Slow
            test_certified_workload;
          Alcotest.test_case "mis-charged double flagged" `Quick
            test_mischarged_double_flagged;
        ] );
    ]
