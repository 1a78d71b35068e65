(** Prioritized 1D range reporting: a segment tree over the
    position-sorted points whose canonical nodes keep their points in
    decreasing weight order.  A query decomposes the rank range of
    [[lo, hi]] into [O(log n)] canonical nodes and scans each list
    until the weight drops below [tau]: [O(log n + t)] time,
    [O(n log n)] space — the structure of Sheng–Tao / Tao
    ([33, 35]) with binary instead of B-ary fanout. *)

include Topk_core.Sigs.PRIORITIZED with module P = Problem
