module Stats = Topk_em.Stats
module Executor = Topk_service.Executor
module Registry = Topk_service.Registry
module Response = Topk_service.Response
module Future = Topk_service.Future
module Metrics = Topk_service.Metrics
module Limits = Topk_service.Limits
module Tr = Topk_trace.Trace
module Cache = Topk_cache.Cache
module Version = Topk_cache.Version
module Clock = Topk_util.Clock

module Make
    (SS : Shard_set.S)
    (T : Topk_core.Sigs.TOPK with module P = SS.P and type t = SS.topk) =
struct
  module P = SS.P
  module W = Topk_core.Sigs.Weight_order (P)

  type t = {
    pool : Executor.t;
    set : SS.t;
    handles : (P.query, P.elem) Registry.handle array;
    wave : int;
    name : string;  (* registration prefix; also the trace instance *)
    cache : P.elem list Cache.t option;  (* per-leg answer cache *)
  }

  type result = {
    answers : P.elem list;
    status : Response.status;
    cost : Stats.snapshot;
    latency : float;
    fanout : int;
    pruned : int;
    empty : int;
  }

  let create ?wave ?cache pool registry ~name set =
    let wave =
      match wave with Some w -> w | None -> Executor.worker_count pool
    in
    if wave <= 0 then
      invalid_arg
        (Printf.sprintf "Scatter.create: wave must be positive (got %d)" wave);
    let handles =
      Array.map
        (fun (sh : SS.shard) ->
          Registry.register registry
            ~name:(Printf.sprintf "%s#%d" name sh.SS.index)
            (module T) sh.SS.topk)
        (SS.shards set)
    in
    { pool; set; handles; wave; name; cache }

  let wave t = t.wave

  (* First [n] elements of [l] (or all of them), plus the rest. *)
  let rec take n l =
    match l with
    | x :: rest when n > 0 ->
        let hd, tl = take (n - 1) rest in
        (x :: hd, tl)
    | _ -> ([], l)

  let query t ?(lane = Topk_service.Lane.Interactive) ?(limits = Limits.none)
      q ~k =
    if k <= 0 then
      invalid_arg
        (Printf.sprintf "Scatter.query: k must be positive (got %d)" k);
    (match limits.Limits.budget with
    | Some b when b < 0 ->
        invalid_arg
          (Printf.sprintf "Scatter.query: budget must be >= 0 (got %d)" b)
    | _ -> ());
    (* Per-leg caching is sound only on the unbudgeted path: under a
       budget the pool may return a cutoff prefix where the cache would
       serve a complete answer.  Shards are immutable, so entries live
       at {!Version.static} and never go stale. *)
    let leg_cache =
      match (t.cache, limits.Limits.budget) with
      | Some c, None -> Some (c, Marshal.to_string q [])
      | _ -> None
    in
    let started = Clock.now () in
    (* Anchor a relative timeout once, here: every per-shard leg then
       shares the same absolute deadline instead of restarting the
       clock per leg. *)
    let budget, deadline = Limits.resolve limits ~now:started in
    let leg_limits =
      {
        Limits.budget;
        horizon =
          (match deadline with
          | None -> Limits.Unbounded
          | Some d -> Limits.At d);
      }
    in
    let m = Executor.metrics t.pool in
    Metrics.Counter.incr m.Metrics.sharded_queries;
    Stats.mark_query ();
    let s = SS.shard_count t.set in
    (* The whole logical query runs under one trace root; the worker
       trace of every submitted leg links back to it via the parent id
       captured at submission. *)
    let result, _trace =
      Tr.with_root "scatter"
        ~attrs:
          [ ("instance", Tr.Str t.name);
            ("k", Tr.Int k);
            ("shards", Tr.Int s) ]
        (fun () ->
          (* Bracket the caller-side work (max queries + gathers)
             exactly like Registry.exec brackets each leg on its
             worker, so the logical query's total cost is the sum of
             independently-exact parts. *)
          Stats.round_carry ();
          let before = Stats.snapshot () in
          (* Scatter phase 1, on the calling domain: exact per-shard
             upper bounds, one MAX query each. *)
          let bounded = ref [] and empty = ref 0 in
          Tr.with_span "scatter.bounds" (fun () ->
              for i = s - 1 downto 0 do
                match SS.upper_bound t.set i q with
                | None -> incr empty
                | Some ub -> bounded := (i, ub) :: !bounded
              done);
          let order =
            List.sort (fun (_, a) (_, b) -> Float.compare b a) !bounded
          in
          (* Phase 2: waves of per-shard jobs through the pool.
             [candidates] is the running global top-k over every element
             gathered so far — each is a real matching element, so its
             k-th weight is a sound pruning threshold whether or not
             legs were cut off.  [legs] keeps the per-shard certified
             answers for the final join. *)
          let legs = ref [] in
          let candidates = ref [] in
          let status = ref Response.Complete in
          let leg_cost = ref Stats.zero_snapshot in
          let fanout = ref 0 and pruned = ref 0 in
          let kth_weight () =
            if List.length !candidates < k then Float.neg_infinity
            else P.weight (List.nth !candidates (k - 1))
          in
          let rec waves remaining =
            (* Bounds are exact maxima of disjoint shards: [ub < kth]
               proves the shard cannot contribute to the global top-k. *)
            let th = kth_weight () in
            let live, dead =
              List.partition (fun (_, ub) -> ub >= th) remaining
            in
            (match dead with
            | [] -> ()
            | _ ->
                Tr.event "scatter.prune"
                  ~attrs:
                    [ ("cut", Tr.Int (List.length dead));
                      ("kth", Tr.Float th) ]);
            pruned := !pruned + List.length dead;
            match live with
            | [] -> ()
            | _ ->
                let now_wave, rest = take t.wave live in
                let leg_name i =
                  (Registry.info t.handles.(i)).Registry.name
                in
                let consult i =
                  match leg_cache with
                  | None -> None
                  | Some (c, qkey) -> (
                      let ts = Clock.now () in
                      match
                        Cache.find c ~instance:(leg_name i) ~qkey
                          ~current:Version.static ~k ~now:ts ()
                      with
                      | Cache.Hit e ->
                          Metrics.Counter.incr m.Metrics.cache_hits;
                          Metrics.Histogram.observe m.Metrics.cache_hit_age_us
                            (int_of_float
                               ((ts -. e.Cache.e_inserted) *. 1e6));
                          Tr.event "cache.hit"
                            ~attrs:[ ("shard", Tr.Int i) ];
                          Some (fst (take k e.Cache.e_payload))
                      | Cache.Stale | Cache.Miss ->
                          Metrics.Counter.incr m.Metrics.cache_misses;
                          None)
                in
                (* Submit every missed leg of the wave before gathering
                   any of them, so cached legs cost no parallelism. *)
                let jobs =
                  List.map
                    (fun (i, _) ->
                      match consult i with
                      | Some answers -> (i, `Hit answers)
                      | None ->
                          ( i,
                            `Fut
                              (* Legs inherit the logical query's lane
                                 (and, via [leg_limits], its absolute
                                 deadline): a fan-out never changes the
                                 priority of the work it is part of. *)
                              (Executor.submit t.pool t.handles.(i) ~lane
                                 ~limits:leg_limits q ~k) ))
                    now_wave
                in
                List.iter
                  (fun (_, job) ->
                    match job with
                    | `Fut _ -> incr fanout
                    | `Hit _ -> ())
                  jobs;
                List.iter
                  (fun (i, job) ->
                    match job with
                    | `Hit answers ->
                        (* A cached leg is a complete certified answer,
                           served with zero charged I/O. *)
                        legs := (answers, true) :: !legs;
                        candidates :=
                          Gather.union ~cmp:W.compare ~k !candidates answers
                    | `Fut fut ->
                    let r =
                      Tr.with_span "scatter.leg"
                        ~attrs:[ ("shard", Tr.Int i) ]
                        (fun () ->
                          let r = Future.await fut in
                          if Tr.is_enabled () then begin
                            (match r.Response.trace_id with
                            | Some id -> Tr.add_attr "leg_trace" (Tr.Int id)
                            | None -> ());
                            Tr.add_attr "leg_ios"
                              (Tr.Int (Response.cost r).Stats.ios);
                            Tr.add_attr "status"
                              (Tr.Str (Response.status_string r.Response.status))
                          end;
                          r)
                    in
                    Metrics.Histogram.observe m.Metrics.shard_latency_us
                      (int_of_float (r.Response.latency *. 1e6));
                    Metrics.Histogram.observe m.Metrics.shard_ios
                      (Response.cost r).Stats.ios;
                    leg_cost := Stats.add !leg_cost (Response.cost r);
                    status := Response.combine_status !status r.Response.status;
                    let answers = r.Response.answers in
                    (match r.Response.status with
                    | Response.Failed _ ->
                        (* A failed leg certifies nothing about its
                           shard. *)
                        legs := ([], false) :: !legs
                    | Response.Complete -> legs := (answers, true) :: !legs
                    | Response.Cutoff_budget | Response.Cutoff_deadline ->
                        legs := (answers, false) :: !legs);
                    (match (leg_cache, r.Response.status) with
                    | Some (c, qkey), Response.Complete -> (
                        match
                          Cache.admit c ~instance:(leg_name i) ~qkey
                            ~version:Version.static ~k
                            ~len:(List.length answers)
                            ~cost:(Response.cost r).Stats.ios
                            ~now:(Clock.now ()) answers
                        with
                        | `Bypassed ->
                            Metrics.Counter.incr m.Metrics.cache_bypasses
                        | `Admitted ->
                            Tr.event "cache.admit"
                              ~attrs:[ ("shard", Tr.Int i) ]
                        | `Superseded -> ())
                    | _ -> ());
                    (* Resident bookkeeping between waves: the leg's
                       reporting cost was charged worker-side;
                       [merge_certified] below is the single charged
                       gather pass. *)
                    candidates :=
                      Gather.union ~cmp:W.compare ~k !candidates answers)
                  jobs;
                waves rest
          in
          waves order;
          let answers, complete =
            Gather.merge_certified ~cmp:W.compare ~weight:P.weight ~k !legs
          in
          (* If the certified merge still proves the full top-k, per-leg
             cutoffs were harmless: report the answer as complete. *)
          let status =
            match !status with
            | (Response.Cutoff_budget | Response.Cutoff_deadline)
              when complete ->
                Response.Complete
            | st -> st
          in
          Stats.round_carry ();
          let local = Stats.diff (Stats.snapshot ()) before in
          Metrics.Counter.add m.Metrics.shards_pruned !pruned;
          Metrics.Histogram.observe m.Metrics.fanout !fanout;
          if Tr.is_enabled () then begin
            Tr.add_attr "visited" (Tr.Int !fanout);
            Tr.add_attr "pruned" (Tr.Int !pruned);
            Tr.add_attr "empty" (Tr.Int !empty)
          end;
          {
            answers;
            status;
            cost = Stats.add local !leg_cost;
            latency = Clock.now () -. started;
            fanout = !fanout;
            pruned = !pruned;
            empty = !empty;
          })
    in
    result
end
