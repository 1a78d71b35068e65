(** The other Rahul–Janardan reduction (reviewed in Section 2 of the
    paper): top-k from {e reporting} + {e exact counting} black boxes.

    A balanced binary tree over the weight-descending order carries,
    at every node, one reporting structure and one counting structure
    on that node's weight range (each element lives in [O(log n)]
    nodes, so space is [O((S_rep + S_cnt) log n)]).

    A top-k query first locates the rank [r*] of the k-th heaviest
    matching element by descending the tree with counting queries
    (left-child count [>= remaining] goes left, else subtract and go
    right), then reports the matching elements of the canonical
    weight-rank prefix up to [r*] — the left subtrees skipped during
    the descent — which contain exactly the [k] answers.  Query
    [O((Q_cnt + Q_rep) log n + k/B)].

    This is the machinery the paper's Section 1.4 competitors are
    built from; experiment E7b compares it against Theorems 1-2, whose
    entire point is removing the [log n] factors it carries. *)

module Make (S : Sigs.PRIORITIZED) (C : Sigs.COUNTING with module P = S.P) :
  Sigs.TOPK with module P = S.P
