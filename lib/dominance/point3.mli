(** Weighted points of [R^3] — the elements of 3D dominance
    (Section 5.3): a query corner [(x, y, z)] selects every point
    [e] with [e_x <= x], [e_y <= y] and [e_z <= z]. *)

type t = private {
  x : float;
  y : float;
  z : float;
  weight : float;
  id : int;
}

val make :
  ?id:int -> x:float -> y:float -> z:float -> weight:float -> unit -> t
(** @raise Invalid_argument on NaN coordinates. *)

val dominated_by : t -> float * float * float -> bool

val compare_weight : t -> t -> int

val pp : Format.formatter -> t -> unit

val of_coords : Topk_util.Rng.t -> (float * float * float) array -> t array
