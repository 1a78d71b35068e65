module Stats = Topk_em.Stats
module Tr = Topk_trace.Trace

module Make (SS : Shard_set.S) = struct
  module P = SS.P
  module W = Topk_core.Sigs.Weight_order (P)

  type report = {
    max_queries : int;
    visited : int;
    pruned : int;
    empty : int;
  }

  let zero_report = { max_queries = 0; visited = 0; pruned = 0; empty = 0 }

  (* Weight of the k-th (i.e. last) candidate once we hold k of them;
     -inf while the candidate list is still short, so nothing is pruned
     before the heap is full. *)
  let kth_weight ~k acc =
    if List.length acc < k then Float.neg_infinity
    else P.weight (List.nth acc (k - 1))

  let query_report t q ~k =
    Stats.mark_query ();
    if k <= 0 then ([], zero_report)
    else
      Tr.with_span "planner.query"
        ~attrs:[ ("k", Tr.Int k); ("shards", Tr.Int (SS.shard_count t)) ]
        (fun () ->
          let s = SS.shard_count t in
          (* Scatter phase 1: exact per-shard upper bounds (one max
             query each).  [None] means the shard has no matching
             element at all — pruned before any top-k work. *)
          let bounded = ref [] and empty = ref 0 in
          Tr.with_span "planner.bounds" (fun () ->
              for i = s - 1 downto 0 do
                match SS.upper_bound t i q with
                | None -> incr empty
                | Some ub -> bounded := (i, ub) :: !bounded
              done);
          let order =
            List.sort (fun (_, a) (_, b) -> Float.compare b a) !bounded
          in
          (* Phase 2: visit in decreasing upper-bound order, maintaining
             the global k best; stop as soon as the next bound cannot
             beat the current k-th candidate.  Bounds are exact maxima
             of disjoint shards, so [ub < kth] proves the whole shard
             (and, since bounds are sorted, every later shard) is out. *)
          (* The running candidate list is resident data whose reporting
             cost was already charged by [SS.topk_query]; maintaining it
             between visits uses the uncharged {!Gather.union}.  The
             single final {!Gather.merge} over the visited legs pays the
             one [O(k/B)] output term of the gather phase. *)
          let rec visit acc legs visited remaining =
            match remaining with
            | [] -> (legs, visited, 0)
            | (i, ub) :: rest ->
                let kth = kth_weight ~k acc in
                if ub < kth then begin
                  Tr.event "planner.prune"
                    ~attrs:
                      [ ("shard", Tr.Int i);
                        ("bound", Tr.Float ub);
                        ("kth", Tr.Float kth);
                        ("cut", Tr.Int (List.length remaining)) ];
                  (legs, visited, List.length remaining)
                end
                else begin
                  let answers =
                    Tr.with_span "planner.visit"
                      ~attrs:
                        [ ("shard", Tr.Int i); ("bound", Tr.Float ub) ]
                      (fun () -> SS.topk_query t i q ~k)
                  in
                  let acc = Gather.union ~cmp:W.compare ~k acc answers in
                  visit acc (answers :: legs) (visited + 1) rest
                end
          in
          let legs, visited, pruned = visit [] [] 0 order in
          let answers = Gather.merge ~cmp:W.compare ~k legs in
          if Tr.is_enabled () then begin
            Tr.add_attr "visited" (Tr.Int visited);
            Tr.add_attr "pruned" (Tr.Int pruned);
            Tr.add_attr "empty" (Tr.Int !empty)
          end;
          (answers, { max_queries = s; visited; pruned; empty = !empty }))

  let query t q ~k = fst (query_report t q ~k)

  let query_all t q ~k =
    Stats.mark_query ();
    if k <= 0 then []
    else begin
      let s = SS.shard_count t in
      let per_shard = List.init s (fun i -> SS.topk_query t i q ~k) in
      Gather.merge ~cmp:W.compare ~k per_shard
    end
end
