module Stats = Topk_em.Stats
module Executor = Topk_service.Executor
module Registry = Topk_service.Registry
module Response = Topk_service.Response
module Future = Topk_service.Future
module Metrics = Topk_service.Metrics
module Limits = Topk_service.Limits
module Tr = Topk_trace.Trace
module Clock = Topk_util.Clock

module Make
    (SS : Shard_set.S)
    (T : Topk_core.Sigs.TOPK with module P = SS.P and type t = SS.topk) =
struct
  module P = SS.P
  module W = Topk_core.Sigs.Weight_order (P)
  module Pl = Planner.Make (SS)

  type t = {
    pool : Executor.t;
    set : SS.t;
    handles : (P.query, P.elem) Registry.handle array;
    wave : int;  (* shard jobs in flight per round: the worker count *)
    name : string;  (* registration prefix; also the trace instance *)
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

  let create pool registry ~name set =
    let handles =
      Array.map
        (fun (sh : SS.shard) ->
          Registry.register registry
            ~name:(Printf.sprintf "%s#%d" name sh.SS.index)
            (module T) sh.SS.topk)
        (SS.shards set)
    in
    { pool; set; handles; wave = Executor.worker_count pool; name }

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
    let started = Clock.now () in
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
          (* Bounds on the calling domain, then waves of per-shard
             jobs through the pool, re-pruned before each wave.
             [legs] keeps the per-shard certified answers for the
             final join. *)
          let legs = ref [] in
          let status = ref Response.Complete in
          let leg_cost = ref Stats.zero_snapshot in
          let report =
            Pl.prune_visit t.set q ~k ~bounds_span:"scatter.bounds"
              ~prune_event:"scatter.prune" ~wave:t.wave ~visit:(fun wave ->
                (* Submit the whole wave before gathering any leg.
                   Legs inherit the logical query's lane (and its
                   limits, so one shared deadline): a fan-out
                   never changes the priority of the work it is part
                   of. *)
                let futs =
                  List.map
                    (fun (i, _) ->
                      ( i,
                        Executor.submit t.pool t.handles.(i) ~lane
                          ~limits q ~k ))
                    wave
                in
                List.map
                  (fun (i, fut) ->
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
                    answers)
                  futs)
          in
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
          Metrics.Counter.add m.Metrics.shards_pruned report.Pl.pruned;
          Metrics.Histogram.observe m.Metrics.fanout report.Pl.visited;
          if Tr.is_enabled () then begin
            Tr.add_attr "visited" (Tr.Int report.Pl.visited);
            Tr.add_attr "pruned" (Tr.Int report.Pl.pruned);
            Tr.add_attr "empty" (Tr.Int report.Pl.empty)
          end;
          {
            answers;
            status;
            cost = Stats.add local !leg_cost;
            latency = Clock.now () -. started;
            fanout = report.Pl.visited;
            pruned = report.Pl.pruned;
            empty = report.Pl.empty;
          })
    in
    result
end
