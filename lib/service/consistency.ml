(* Re-export of {!Topk_cache.Consistency}, where the consistency
   vocabulary is defined (below the service layer in the dependency
   order, so the cache's staleness rule, the replication router and
   the client share the single type).  It is kept only for the
   perfbench harness, which names [Topk_service.Consistency]; the
   benchmark change of ROADMAP item 1 deletes it.  Everything else
   names [Topk_cache.Consistency]. *)
include Topk_cache.Consistency
