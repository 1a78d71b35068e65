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

  (* First [n] elements of [l] (or all of them), plus the rest. *)
  let rec take n l =
    match l with
    | x :: rest when n > 0 ->
        let hd, tl = take (n - 1) rest in
        (x :: hd, tl)
    | _ -> ([], l)

  let prune_visit t q ~k ~bounds_span ~prune_event ~wave ~visit =
    let s = SS.shard_count t in
    (* Phase 1: exact per-shard upper bounds (one max query each).
       [None] means the shard has no matching element at all — pruned
       before any top-k work. *)
    let bounded = ref [] and empty = ref 0 in
    Tr.with_span bounds_span (fun () ->
        for i = s - 1 downto 0 do
          match SS.upper_bound t i q with
          | None -> incr empty
          | Some ub -> bounded := (i, ub) :: !bounded
        done);
    let order = List.sort (fun (_, a) (_, b) -> Float.compare b a) !bounded in
    (* Phase 2: waves in decreasing upper-bound order.
       [top.(0 .. filled-1)] holds, decreasing, the k heaviest weights
       visited so far.  Each is the weight of a real matching element,
       so once [filled = k], [top.(k-1)] is a sound pruning threshold
       whether or not a leg was cut off.  The buffer needs no more than
       [SS.size] slots.  It is resident bookkeeping: each leg charged
       its own reporting, and the caller's final gather is the one
       charged output pass. *)
    let cap = Int.min k (SS.size t) in
    let top = Array.make cap Float.neg_infinity
    and scratch = Array.make cap Float.neg_infinity
    and filled = ref 0 in
    (* Merge a leg's decreasing answers into [top], through [scratch],
       keeping the [cap] heaviest. *)
    let admit answers =
      let rec go n i l =
        if n = cap then n
        else
          match l with
          | e :: rest
            when i >= !filled || Float.compare (P.weight e) top.(i) > 0 ->
              scratch.(n) <- P.weight e;
              go (n + 1) i rest
          | _ when i < !filled ->
              scratch.(n) <- top.(i);
              go (n + 1) (i + 1) l
          | _ -> n
      in
      let n = go 0 0 answers in
      Array.blit scratch 0 top 0 n;
      filled := n
    in
    let rec waves visited pruned remaining =
      (* Bounds are exact maxima of disjoint shards: [ub < kth] proves
         the shard cannot contribute to the global top-k, and since
         bounds are sorted, neither can any later shard. *)
      let kth = if !filled < k then Float.neg_infinity else top.(k - 1) in
      let live, dead = List.partition (fun (_, ub) -> ub >= kth) remaining in
      (match dead with
      | [] -> ()
      | (i, ub) :: _ ->
          Tr.event prune_event
            ~attrs:
              [ ("shard", Tr.Int i);
                ("bound", Tr.Float ub);
                ("kth", Tr.Float kth);
                ("cut", Tr.Int (List.length dead)) ]);
      let pruned = pruned + List.length dead in
      match live with
      | [] -> (visited, pruned)
      | _ ->
          let now, rest = take wave live in
          List.iter admit (visit now);
          waves (visited + List.length now) pruned rest
    in
    let visited, pruned = waves 0 0 order in
    { max_queries = s; visited; pruned; empty = !empty }

  let query_report t q ~k =
    Stats.mark_query ();
    if k <= 0 then ([], zero_report)
    else
      Tr.with_span "planner.query"
        ~attrs:[ ("k", Tr.Int k); ("shards", Tr.Int (SS.shard_count t)) ]
        (fun () ->
          (* One shard per wave: pruning is re-checked after every
             visit.  The single final {!Gather.merge} over the visited
             legs pays the one [O(k/B)] output term of the gather. *)
          let legs = ref [] in
          let report =
            prune_visit t q ~k ~bounds_span:"planner.bounds"
              ~prune_event:"planner.prune" ~wave:1 ~visit:(fun wave ->
                List.map
                  (fun (i, ub) ->
                    let answers =
                      Tr.with_span "planner.visit"
                        ~attrs:[ ("shard", Tr.Int i); ("bound", Tr.Float ub) ]
                        (fun () -> SS.topk_query t i q ~k)
                    in
                    legs := answers :: !legs;
                    answers)
                  wave)
          in
          let answers = Gather.merge ~cmp:W.compare ~k !legs in
          if Tr.is_enabled () then begin
            Tr.add_attr "visited" (Tr.Int report.visited);
            Tr.add_attr "pruned" (Tr.Int report.pruned);
            Tr.add_attr "empty" (Tr.Int report.empty)
          end;
          (answers, report))

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
