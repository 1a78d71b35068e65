(** Ready-made top-k 1D range reporting structures, plus the
    demonstration of the bonus {!Topk_core.Max_from_pri} reduction:
    Theorem 2 driven entirely by the prioritized black box. *)

module Oracle : module type of Topk_core.Oracle.Make (Problem)

module Topk_t1 : module type of Topk_core.Theorem1.Make (Range_pri)

module Topk_t2 : module type of Topk_core.Theorem2.Make (Range_pri) (Range_max)

(** The synthesized max structure: [O(Q_pri log n)] queries, no
    problem-specific max code. *)
module Synth_max : module type of Topk_core.Max_from_pri.Make (Range_pri)

(** Theorem 2 with the synthesized max structure plugged in. *)
module Topk_t2_synth :
  module type of Topk_core.Theorem2.Make (Range_pri) (Synth_max)

module Topk_rj : Topk_core.Sigs.TOPK
  with type P.elem = Wpoint.t
   and type P.query = float * float

module Topk_naive : Topk_core.Sigs.TOPK
  with type P.elem = Wpoint.t
   and type P.query = float * float

val params : unit -> Topk_core.Params.t
(** [lambda = 2] ([O(n^2)] distinct rank ranges),
    [Q_pri = Q_max = log2 n]. *)

(** Dynamic top-k 1D range reporting: Bentley–Saxe over {!Range_pri}
    plus {!Dyn_range_max} through the dynamic Theorem 2 — the second
    problem instantiating the update claim (after interval stabbing),
    showing the dynamic reduction is problem-agnostic as well. *)
module Dyn_pri : sig
  include Topk_core.Sigs.DYNAMIC_PRIORITIZED
    with type P.elem = Wpoint.t
     and type P.query = float * float
  val live : t -> int
  val rebuilds : t -> int
end

module Dyn_topk : sig
  include Topk_core.Sigs.DYNAMIC_TOPK
    with type P.elem = Wpoint.t
     and type P.query = float * float
  val rungs : t -> int
  val resamples : t -> int
  val rounds_run : t -> int
  val rounds_failed : t -> int
end
