(** Weighted points of [R^d] — elements of d-dimensional halfspace
    (Section 5.5) and circular range reporting. *)

type t = private {
  coords : float array;
  weight : float;
  id : int;
}

val make : ?id:int -> coords:float array -> weight:float -> unit -> t
(** The coordinate array is copied.
    @raise Invalid_argument on an empty or NaN-containing vector. *)

val dim : t -> int

val compare_weight : t -> t -> int

val dot : t -> float array -> float
(** @raise Invalid_argument on dimension mismatch. *)

val dist2 : t -> float array -> float
(** Squared Euclidean distance to a center. *)

val pp : Format.formatter -> t -> unit

val of_coords : Topk_util.Rng.t -> float array array -> t array
(** Attach distinct weights and fresh ids to raw coordinate vectors
    (e.g. {!Topk_util.Gen.points}). *)

val of_point2 : Topk_geom.Point2.t -> t
(** Embed a planar point (same weight and id). *)
