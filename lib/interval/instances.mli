(** Ready-made top-k interval-stabbing structures: the reductions of
    Theorems 1 and 2 instantiated with this library's black boxes,
    plus the baselines they are compared against in experiments
    E4–E8. *)

module Oracle : module type of Topk_core.Oracle.Make (Problem)

(** Theorem 1 applied to {!Seg_stab}: static, worst-case
    [O(Q_pri log_B n)] queries. *)
module Topk_t1 : module type of Topk_core.Theorem1.Make (Seg_stab)

(** Theorem 2 applied to {!Seg_stab} + {!Slab_max}: expected
    [O(Q_pri + Q_max)] queries — Theorem 4, first bullet. *)
module Topk_t2 : module type of Topk_core.Theorem2.Make (Seg_stab) (Slab_max)

(** The prior reduction of Rahul–Janardan (eqs. (1)–(2)). *)
module Topk_rj : Topk_core.Sigs.TOPK with type P.elem = Interval.t
                                      and type P.query = float

(** Scan-everything baseline. *)
module Topk_naive : Topk_core.Sigs.TOPK with type P.elem = Interval.t
                                         and type P.query = float

val params : unit -> Topk_core.Params.t
(** Reduction parameters fitted to this problem: [lambda = 1] (at most
    [2n + 1] distinct stabbing outcomes), [Q_pri = Q_max = log2 n]. *)

(** Dynamic prioritized stabbing: the logarithmic method over
    {!Seg_stab} ([U_pri = O(log^2 n)] amortized). *)
module Dyn_pri : sig
  include Topk_core.Sigs.DYNAMIC_PRIORITIZED
    with type P.elem = Interval.t
     and type P.query = float
  val live : t -> int
  val rebuilds : t -> int
end

(** The dynamic form of Theorem 2 over {!Dyn_pri} + {!Dyn_max}:
    Theorem 4 first bullet including its update claim. *)
module Dyn_topk : sig
  include Topk_core.Sigs.DYNAMIC_TOPK
    with type P.elem = Interval.t
     and type P.query = float
  val rungs : t -> int
  val resamples : t -> int
  val rounds_run : t -> int
  val rounds_failed : t -> int
end

(** Section 2's reporting+counting reduction, for comparison in E7b. *)
module Topk_rj_counting :
  module type of Topk_core.Rj_counting.Make (Seg_stab) (Stab_count)

(** The reductions over the linear-space interval-tree black box
    ({!Itree_pri}) instead of the segment tree — E15's black-box swap
    ablation. *)
module Topk_t2_itree :
  module type of Topk_core.Theorem2.Make (Itree_pri) (Slab_max)

module Topk_t1_itree : module type of Topk_core.Theorem1.Make (Itree_pri)
