(** Weighted points of the plane — the elements of 2D halfspace
    (Section 5.4) and circular range reporting. *)

type t = private {
  x : float;
  y : float;
  weight : float;
  id : int;
}

val make : ?id:int -> x:float -> y:float -> weight:float -> unit -> t
(** @raise Invalid_argument on NaN coordinates. *)

val compare_weight : t -> t -> int
(** Weight with [id] tie-break — a strict total order. *)

val dot : t -> float * float -> float
(** [dot p (a, b)] is [a * p.x + b * p.y]. *)

val orient : t -> t -> t -> float
(** Twice the signed area of the triangle [p q r]: positive for a left
    (counterclockwise) turn. *)

val dist2 : t -> float * float -> float
(** Squared Euclidean distance to a raw coordinate pair. *)

val pp : Format.formatter -> t -> unit

val of_coords : Topk_util.Rng.t -> (float * float) array -> t array
(** Attach distinct weights and fresh ids to raw coordinates. *)
