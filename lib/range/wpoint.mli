(** Weighted points of the real line — the elements of 1D top-k range
    reporting, the problem whose study ([3, 11, 12, 33, 35] in the
    paper's related work) motivated the general reductions: a query
    interval [[lo, hi]] selects every point inside it. *)

type t = private {
  pos : float;
  weight : float;
  id : int;
}

val make : ?id:int -> pos:float -> weight:float -> unit -> t
(** @raise Invalid_argument on a NaN position. *)

val compare_weight : t -> t -> int

val compare_pos : t -> t -> int

val pp : Format.formatter -> t -> unit

val of_positions : Topk_util.Rng.t -> float array -> t array
