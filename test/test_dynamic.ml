(* Tests for the dynamic structures: Bentley-Saxe prioritized, dynamic
   stabbing-max, and the dynamic form of Theorem 2 (updates in
   O(U_pri + U_max) expected). *)

module Rng = Topk_util.Rng
module Gen = Topk_util.Gen
module I = Topk_interval.Interval
module Inst = Topk_interval.Instances
module Dyn_pri = Topk_interval.Instances.Dyn_pri
module Dyn_max = Topk_interval.Dyn_max
module Dyn_topk = Topk_interval.Instances.Dyn_topk
module Sigs = Topk_core.Sigs

let ids elems = List.map (fun (e : I.t) -> e.I.id) elems

let sorted_ids elems = List.sort Int.compare (ids elems)

(* A mutable reference model: a plain list of live intervals. *)
module Model = struct
  type t = { mutable live : I.t list }

  let create () = { live = [] }

  let insert t e = t.live <- e :: t.live

  let delete t (e : I.t) =
    t.live <- List.filter (fun (x : I.t) -> x.I.id <> e.I.id) t.live

  let prioritized t q ~tau =
    List.filter (fun (e : I.t) -> I.contains e q && e.I.weight >= tau) t.live

  let max t q =
    List.fold_left
      (fun best e ->
        if I.contains e q then
          match best with
          | None -> Some e
          | Some b -> if I.compare_weight e b > 0 then Some e else best
        else best)
      None t.live

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

(* Drive structure and model through the same random trace, checking
   agreement after every batch. *)
let run_trace ?pool ~check ~insert ~delete rng ~ops ~check_every =
  let model = Model.create () in
  let next_id = ref 0 in
  let is_live id =
    List.exists (fun (e : I.t) -> e.I.id = id) model.Model.live
  in
  (* With a [pool], ids come from [1, pool], so deleted ids come back
     (often while still tombstoned) and the live set never exceeds it. *)
  let new_id () =
    match pool with
    | None ->
        incr next_id;
        !next_id
    | Some n ->
        let rec draw () =
          let id = 1 + Rng.int rng n in
          if is_live id then draw () else id
        in
        draw ()
  in
  for op = 1 to ops do
    let n_live = List.length model.Model.live in
    let do_insert =
      (n_live < 10 || Rng.bernoulli rng 0.6)
      && (match pool with None -> true | Some n -> n_live < n)
    in
    if do_insert then begin
      let e = random_interval rng (new_id ()) in
      Model.insert model e;
      insert e
    end
    else begin
      let live = Array.of_list model.Model.live in
      let e = live.(Rng.int rng (Array.length live)) in
      Model.delete model e;
      delete e
    end;
    if op mod check_every = 0 then check model
  done;
  check model

let test_dyn_pri_trace () =
  let rng = Rng.create 301 in
  let s = Dyn_pri.build [||] in
  run_trace rng ~ops:600 ~check_every:50
    ~insert:(Dyn_pri.insert s)
    ~delete:(Dyn_pri.delete s)
    ~check:(fun model ->
      Alcotest.(check int) "live count" (List.length model.Model.live)
        (Dyn_pri.live s);
      let qs = Gen.stab_queries rng ~n:10 in
      Array.iter
        (fun q ->
          List.iter
            (fun tau ->
              Alcotest.(check (list int))
                "dyn prioritized"
                (sorted_ids (Model.prioritized model q ~tau))
                (sorted_ids (Dyn_pri.query s q ~tau)))
            [ Float.neg_infinity; 100.; 400. ])
        qs)

let test_dyn_pri_monitored_trace () =
  let rng = Rng.create 303 in
  let s = Dyn_pri.build [||] in
  run_trace rng ~ops:300 ~check_every:60
    ~insert:(Dyn_pri.insert s)
    ~delete:(Dyn_pri.delete s)
    ~check:(fun model ->
      let qs = Gen.stab_queries rng ~n:5 in
      Array.iter
        (fun q ->
          let expected = Model.prioritized model q ~tau:Float.neg_infinity in
          let total = List.length expected in
          (* All-verdict must be exact even with tombstones. *)
          (match
             Dyn_pri.query_monitored s q ~tau:Float.neg_infinity ~limit:total
           with
           | Sigs.All got ->
               Alcotest.(check (list int))
                 "monitored all" (sorted_ids expected) (sorted_ids got)
           | Sigs.Truncated _ -> Alcotest.fail "unexpected truncation");
          if total > 3 then
            match
              Dyn_pri.query_monitored s q ~tau:Float.neg_infinity
                ~limit:(total - 2)
            with
            | Sigs.Truncated prefix ->
                Alcotest.(check bool)
                  "truncated bigger than limit" true
                  (List.length prefix > total - 2)
            | Sigs.All _ -> Alcotest.fail "expected truncation")
        qs)

let test_dyn_max_trace () =
  let rng = Rng.create 307 in
  let s = Dyn_max.build [||] in
  run_trace rng ~pool:40 ~ops:600 ~check_every:40
    ~insert:(Dyn_max.insert s)
    ~delete:(Dyn_max.delete s)
    ~check:(fun model ->
      let qs = Gen.stab_queries rng ~n:15 in
      Array.iter
        (fun q ->
          Alcotest.(check (option int))
            "dyn max"
            (Option.map (fun (e : I.t) -> e.I.id) (Model.max model q))
            (Option.map (fun (e : I.t) -> e.I.id) (Dyn_max.query s q)))
        qs)

let test_dyn_max_delete_heavy () =
  (* Repeatedly delete the current maximum: the head-skipping must
     keep answers exact. *)
  let rng = Rng.create 311 in
  let n = 200 in
  let elems =
    Array.init n (fun i -> random_interval rng (i + 1))
  in
  let s = Dyn_max.build elems in
  let model = Model.create () in
  Array.iter (Model.insert model) elems;
  let q = 0.55 in
  let rec drain steps =
    if steps > 0 then begin
      match Model.max model q with
      | None ->
          Alcotest.(check (option int)) "both empty" None
            (Option.map (fun (e : I.t) -> e.I.id) (Dyn_max.query s q))
      | Some m ->
          Alcotest.(check (option int))
            "max agrees" (Some m.I.id)
            (Option.map (fun (e : I.t) -> e.I.id) (Dyn_max.query s q));
          Model.delete model m;
          Dyn_max.delete s m;
          drain (steps - 1)
    end
  in
  drain n

(* Delete-then-requery edge cases: drain to empty, delete the current
   maximum, and re-insert a tombstoned key (the stale copy is baked
   into a bucket, so the tombstone must not filter the fresh copy). *)

let test_delete_to_empty () =
  let rng = Rng.create 331 in
  let elems = Array.init 40 (fun i -> random_interval rng (i + 1)) in
  let pri = Dyn_pri.build elems in
  let mx = Dyn_max.build elems in
  let topk = Dyn_topk.build ~params:(Inst.params ()) elems in
  Array.iter
    (fun e ->
      Dyn_pri.delete pri e;
      Dyn_max.delete mx e;
      Dyn_topk.delete topk e)
    elems;
  Alcotest.(check int) "pri empty" 0 (Dyn_pri.live pri);
  Alcotest.(check int) "topk empty" 0 (Dyn_topk.size topk);
  Array.iter
    (fun q ->
      Alcotest.(check (list int))
        "pri answers nothing" []
        (ids (Dyn_pri.query pri q ~tau:Float.neg_infinity));
      Alcotest.(check (option int))
        "max answers nothing" None
        (Option.map (fun (e : I.t) -> e.I.id) (Dyn_max.query mx q));
      Alcotest.(check (list int))
        "topk answers nothing" []
        (ids (Dyn_topk.query topk q ~k:5)))
    (Gen.stab_queries rng ~n:10);
  (* The structures stay usable after draining: fresh inserts serve. *)
  let e = random_interval rng 1000 in
  Dyn_pri.insert pri e;
  Dyn_max.insert mx e;
  Dyn_topk.insert topk e;
  let q = (e.I.lo +. e.I.hi) /. 2. in
  Alcotest.(check (list int)) "pri serves again" [ 1000 ]
    (ids (Dyn_pri.query pri q ~tau:Float.neg_infinity));
  Alcotest.(check (option int)) "max serves again" (Some 1000)
    (Option.map (fun (e : I.t) -> e.I.id) (Dyn_max.query mx q));
  Alcotest.(check (list int)) "topk serves again" [ 1000 ]
    (ids (Dyn_topk.query topk q ~k:3))

let test_dyn_topk_delete_current_max () =
  (* Repeatedly delete the top answer: every rung's max structure must
     skip its tombstoned head and the next query stay exact. *)
  let rng = Rng.create 337 in
  let elems = Array.init 150 (fun i -> random_interval rng (i + 1)) in
  let s = Dyn_topk.build ~params:(Inst.params ()) elems in
  let model = Model.create () in
  Array.iter (Model.insert model) elems;
  let q = 0.5 in
  let steps = ref 0 in
  let continue = ref true in
  while !continue do
    match Model.top_k model q ~k:1 with
    | [] ->
        Alcotest.(check (list int)) "both drained" []
          (ids (Dyn_topk.query s q ~k:1));
        continue := false
    | m :: _ ->
        incr steps;
        Alcotest.(check (list int))
          "top-1 agrees before the delete" [ m.I.id ]
          (ids (Dyn_topk.query s q ~k:1));
        Model.delete model m;
        Dyn_topk.delete s m;
        Alcotest.(check (list int))
          "top-3 agrees after deleting the max"
          (ids (Model.top_k model q ~k:3))
          (ids (Dyn_topk.query s q ~k:3))
  done;
  Alcotest.(check bool) "drained something" true (!steps > 0)

(* One problem's three dynamic structures, for the re-insert case. *)
module type REINSERT = sig
  type elem

  type query

  module Pri : sig
    include
      Sigs.DYNAMIC_PRIORITIZED
        with type P.elem = elem
         and type P.query = query

    val live : t -> int
  end

  module Max :
    Sigs.DYNAMIC_MAX with type P.elem = elem and type P.query = query

  module Topk :
    Sigs.DYNAMIC_TOPK with type P.elem = elem and type P.query = query

  val params : unit -> Topk_core.Params.t

  val elems : Rng.t -> elem array
  (** 30 elements, ids 1 to 30, weights below 1e5. *)

  val revive : elem -> elem
  (** The same id, weight 1e6, matching every query of [queries]. *)

  val queries : Rng.t -> query array

  val everything : query
  (** Matches every element. *)
end

let check_reinsert (module X : REINSERT) =
  let ids elems = List.map X.Pri.P.id elems in
  let rng = Rng.create 347 in
  let elems = X.elems rng in
  let pri = X.Pri.build elems in
  let mx = X.Max.build elems in
  let topk = X.Topk.build ~params:(X.params ()) elems in
  let victim = elems.(12) in
  let victim_id = X.Pri.P.id victim in
  X.Pri.delete pri victim;
  X.Max.delete mx victim;
  X.Topk.delete topk victim;
  (* Re-insert the same id as a heavier element matching every query:
     it must be visible (and win) everywhere — the old tombstone may
     not filter the fresh copy, nor may the stale copy resurrect. *)
  let revived = X.revive victim in
  X.Pri.insert pri revived;
  X.Max.insert mx revived;
  X.Topk.insert topk revived;
  Alcotest.(check int) "pri live restored" 30 (X.Pri.live pri);
  Alcotest.(check int) "topk size restored" 30 (X.Topk.size topk);
  Array.iter
    (fun q ->
      let got = ids (X.Pri.query pri q ~tau:1e5) in
      Alcotest.(check (list int)) "pri sees only the revived copy"
        [ victim_id ] got;
      Alcotest.(check (option int)) "max crowns the revived copy"
        (Some victim_id)
        (Option.map X.Pri.P.id (X.Max.query mx q));
      Alcotest.(check int) "topk crowns the revived copy" victim_id
        (List.hd (ids (X.Topk.query topk q ~k:1))))
    (X.queries rng);
  (* A leaked stale copy would answer under the same id. *)
  let all = ids (X.Pri.query pri X.everything ~tau:Float.neg_infinity) in
  Alcotest.(check bool) "no duplicate ids" true
    (List.length all = List.length (List.sort_uniq Int.compare all))

let test_reinsert_tombstoned_key () =
  check_reinsert
    (module struct
      type elem = I.t

      type query = float

      module Pri = Dyn_pri
      module Max = Dyn_max
      module Topk = Dyn_topk

      let params = Inst.params

      let elems rng = Array.init 30 (fun i -> random_interval rng (i + 1))

      let revive (v : I.t) = I.make ~id:v.I.id ~lo:0.0 ~hi:1.2 ~weight:1e6 ()

      let queries rng = Gen.stab_queries rng ~n:8

      let everything = 0.5
    end)

let test_reinsert_tombstoned_key_range () =
  let module W = Topk_range.Wpoint in
  check_reinsert
    (module struct
      type elem = W.t

      type query = float * float

      module Pri = Topk_range.Instances.Dyn_pri
      module Max = Topk_range.Dyn_range_max
      module Topk = Topk_range.Instances.Dyn_topk

      let params = Topk_range.Instances.params

      let elems rng =
        Array.init 30 (fun i ->
            W.make ~id:(i + 1) ~pos:(Rng.uniform rng)
              ~weight:(float_of_int (i + 1) +. Rng.float rng 0.3)
              ())

      let revive (v : W.t) = W.make ~id:v.W.id ~pos:0.5 ~weight:1e6 ()

      let queries rng =
        Array.init 8 (fun _ ->
            (Rng.float rng 0.5, 0.5 +. Rng.float rng 0.5))

      let everything = (0., 1.)
    end)

let test_dyn_topk_trace () =
  let rng = Rng.create 313 in
  let params = Inst.params () in
  let s = Dyn_topk.build ~params [||] in
  run_trace rng ~ops:500 ~check_every:50
    ~insert:(Dyn_topk.insert s)
    ~delete:(Dyn_topk.delete s)
    ~check:(fun model ->
      let qs = Gen.stab_queries rng ~n:8 in
      Array.iter
        (fun q ->
          List.iter
            (fun k ->
              Alcotest.(check (list int))
                "dyn top-k"
                (ids (Model.top_k model q ~k))
                (ids (Dyn_topk.query s q ~k)))
            [ 1; 5; 40; 1000 ])
        qs)

let test_dyn_topk_build_then_update () =
  let rng = Rng.create 317 in
  let spans = Gen.intervals rng ~shape:Gen.Mixed_intervals ~n:300 in
  let elems = I.of_spans rng spans in
  let s = Dyn_topk.build ~params:(Inst.params ()) elems in
  let model = Model.create () in
  Array.iter (Model.insert model) elems;
  (* Delete a third, insert fresh ones, re-check. *)
  Array.iteri
    (fun i e ->
      if i mod 3 = 0 then begin
        Model.delete model e;
        Dyn_topk.delete s e
      end)
    elems;
  for i = 1 to 100 do
    let e = random_interval rng (1000 + i) in
    Model.insert model e;
    Dyn_topk.insert s e
  done;
  let qs = Gen.stab_queries rng ~n:10 in
  Array.iter
    (fun q ->
      List.iter
        (fun k ->
          Alcotest.(check (list int))
            "after updates"
            (ids (Model.top_k model q ~k))
            (ids (Dyn_topk.query s q ~k)))
        [ 1; 10; 100 ])
    qs

let test_resampling_fires () =
  let rng = Rng.create 319 in
  let s = Dyn_topk.build ~params:(Inst.params ()) [||] in
  for i = 1 to 2000 do
    Dyn_topk.insert s (random_interval rng i)
  done;
  Alcotest.(check bool) "ladder resampled as n grew" true
    (Dyn_topk.resamples s > 3);
  Alcotest.(check int) "size tracks inserts" 2000 (Dyn_topk.size s)

let prop_dynamic_agree =
  QCheck.Test.make ~count:15 ~name:"dynamic top-k agrees after random trace"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let s = Dyn_topk.build ~params:(Inst.params ()) [||] in
      let model = Model.create () in
      let next_id = ref 0 in
      for _ = 1 to 150 do
        if List.length model.Model.live < 5 || Rng.bernoulli rng 0.65 then begin
          incr next_id;
          let e = random_interval rng !next_id in
          Model.insert model e;
          Dyn_topk.insert s e
        end
        else begin
          let live = Array.of_list model.Model.live in
          let e = live.(Rng.int rng (Array.length live)) in
          Model.delete model e;
          Dyn_topk.delete s e
        end
      done;
      let qs = Gen.stab_queries rng ~n:4 in
      Array.for_all
        (fun q ->
          List.for_all
            (fun k ->
              ids (Model.top_k model q ~k) = ids (Dyn_topk.query s q ~k))
            [ 1; 7; 300 ])
        qs)

let () =
  Alcotest.run "topk_dynamic"
    [
      ( "dyn_pri",
        [
          Alcotest.test_case "random trace" `Slow test_dyn_pri_trace;
          Alcotest.test_case "monitored on trace" `Quick
            test_dyn_pri_monitored_trace;
        ] );
      ( "dyn_max",
        [
          Alcotest.test_case "random trace" `Slow test_dyn_max_trace;
          Alcotest.test_case "delete-heavy" `Quick test_dyn_max_delete_heavy;
        ] );
      ( "delete_edges",
        [
          Alcotest.test_case "delete to empty" `Quick test_delete_to_empty;
          Alcotest.test_case "delete current max" `Quick
            test_dyn_topk_delete_current_max;
          Alcotest.test_case "re-insert tombstoned key" `Quick
            test_reinsert_tombstoned_key;
          Alcotest.test_case "re-insert tombstoned key on range" `Quick
            test_reinsert_tombstoned_key_range;
        ] );
      ( "dyn_topk",
        [
          Alcotest.test_case "random trace" `Slow test_dyn_topk_trace;
          Alcotest.test_case "build then update" `Quick
            test_dyn_topk_build_then_update;
          Alcotest.test_case "resampling fires" `Quick test_resampling_fires;
          QCheck_alcotest.to_alcotest prop_dynamic_agree;
        ] );
    ]
