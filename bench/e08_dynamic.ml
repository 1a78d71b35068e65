(* E8 (Theorem 4, dynamic): updates on the dynamic top-k interval
   structure cost O(U_pri + U_max) amortized expected — wall-clock per
   update should grow polylogarithmically, and queries answered mid-
   stream stay correct and cheap. *)

module Clock = Topk_util.Clock
module Rng = Topk_util.Rng
module I = Topk_interval.Interval
module Inst = Topk_interval.Instances
module Dyn = Topk_interval.Instances.Dyn_topk

let random_interval rng id =
  let lo = Rng.uniform rng in
  let len = Rng.float rng (1. -. lo) in
  I.make ~id ~lo ~hi:(lo +. len)
    ~weight:(float_of_int id +. Rng.float rng 0.4)
    ()

let run () =
  Table.section
    "E8: dynamic Theorem 2 on interval stabbing (update and query cost)";
  let rows = ref [] in
  List.iter
    (fun n ->
      let rng = Rng.create (80_000 + n) in
      let s =
        Topk_em.Config.with_model Workloads.em_model (fun () ->
            Dyn.build ~params:(Inst.params ()) [||])
      in
      (* Insert n elements, then a mixed churn phase. *)
      let t0 = Clock.now () in
      let live = ref [] in
      for i = 1 to n do
        let e = random_interval rng i in
        live := e :: !live;
        Dyn.insert s e
      done;
      let insert_us = (Clock.now () -. t0) *. 1e6 /. float_of_int n in
      let live_arr = Array.of_list !live in
      let churn = max 100 (n / 4) in
      let t1 = Clock.now () in
      for i = 1 to churn do
        if i mod 2 = 0 then
          Dyn.insert s (random_interval rng (n + i))
        else Dyn.delete s live_arr.(Rng.int rng n)
      done;
      let churn_us = (Clock.now () -. t1) *. 1e6 /. float_of_int churn in
      let queries = Workloads.stab_queries ~seed:n ~n:50 in
      let q_ios =
        Workloads.per_query_ios (fun q -> ignore (Dyn.query s q ~k:10)) queries
      in
      rows :=
        [ Table.fi n;
          Table.ff ~d:1 insert_us;
          Table.ff ~d:1 churn_us;
          Table.ff ~d:1 q_ios;
          Table.fi (Dyn.resamples s);
          Table.fi (Dyn.size s) ]
        :: !rows)
    (Workloads.sizes [ 2048; 8192; 32_768; 131_072 ]);
  Table.print
    ~title:
      "Amortized wall-clock per update (microseconds) and per-query I/Os \
       (k = 10) under churn"
    ~header:
      [ "n"; "insert us/op"; "churn us/op"; "query ios"; "resamples";
        "final size" ]
    (List.rev !rows);
  Table.note
    "Claim: update cost grows polylogarithmically in n (amortized \
     expected, eq. after (6)); query cost matches the static E5 numbers.";

  (* The same dynamic reduction on a second problem (1D range
     reporting), black boxes swapped wholesale. *)
  let rows = ref [] in
  List.iter
    (fun n ->
      let rng = Rng.create (81_000 + n) in
      let s =
        Topk_em.Config.with_model Workloads.em_model (fun () ->
            Topk_range.Instances.Dyn_topk.build
              ~params:(Topk_range.Instances.params ()) [||])
      in
      let t0 = Clock.now () in
      for i = 1 to n do
        Topk_range.Instances.Dyn_topk.insert s
          (Topk_range.Wpoint.make ~id:i ~pos:(Rng.uniform rng)
             ~weight:(float_of_int i +. Rng.float rng 0.4)
             ())
      done;
      let insert_us = (Clock.now () -. t0) *. 1e6 /. float_of_int n in
      let queries =
        Array.init 50 (fun _ ->
            let a = Rng.uniform rng and b = Rng.uniform rng in
            (Float.min a b, Float.max a b))
      in
      let q_ios =
        Workloads.per_query_ios
          (fun q -> ignore (Topk_range.Instances.Dyn_topk.query s q ~k:10))
          queries
      in
      rows :=
        [ Table.fi n; Table.ff ~d:1 insert_us; Table.ff ~d:1 q_ios;
          Table.fi (Topk_range.Instances.Dyn_topk.resamples s) ]
        :: !rows)
    (Workloads.sizes [ 2048; 16_384; 131_072 ]);
  Table.print
    ~title:"E8b: the same dynamic reduction on 1D range reporting"
    ~header:[ "n"; "insert us/op"; "query ios"; "resamples" ]
    (List.rev !rows);
  Table.note
    "Identical wrapper (Theorem2_dynamic), different black boxes \
     (Bentley-Saxe range tree + head-skipping range max): the update \
     claim is as problem-agnostic as the static one."
