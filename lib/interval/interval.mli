(** Weighted closed intervals of the real line — the elements of the
    interval-stabbing problem (Section 5.1): a query point [q] selects
    every interval [[lo, hi]] with [lo <= q <= hi]. *)

type t = private {
  lo : float;
  hi : float;
  weight : float;
  id : int;
}

val make : ?id:int -> lo:float -> hi:float -> weight:float -> unit -> t
(** @raise Invalid_argument if [lo > hi] or a bound is NaN.
    When [id] is omitted a fresh one is drawn from a global counter. *)

val contains : t -> float -> bool

val compare_weight : t -> t -> int
(** Weight order with [id] tie-break — a strict total order. *)

val pp : Format.formatter -> t -> unit

val of_spans : Topk_util.Rng.t -> (float * float) array -> t array
(** Attach ids and fresh distinct weights to raw spans from
    {!Topk_util.Gen.intervals}. *)
