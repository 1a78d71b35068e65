(** Prioritized interval stabbing — the [Q_pri] black box of
    Theorem 4.

    A segment tree over the elementary slabs assigns each interval to
    [O(log n)] canonical nodes; each node keeps its intervals sorted by
    decreasing weight.  A query [(q, tau)] walks the root-to-leaf path
    of [q]'s slab and, at each node, scans the canonical list until the
    weight drops below [tau] — every scanned element except the last
    per node is reported, so the cost is [O(log n + t)].

    This substitutes for Tao's ray-stabbing structure [34] (an
    I/O-optimal [O(log_B n + t/B)] structure): same interface, same
    output-sensitivity, a [log n] vs [log_B n] navigation term (the
    reductions only require [Q_pri(n) >= log_B n]).  Space is
    [O(n log n)] words. *)

include Topk_core.Sigs.PRIORITIZED with module P = Problem
