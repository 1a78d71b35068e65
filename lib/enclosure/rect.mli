(** Weighted axis-parallel rectangles — the elements of 2D point
    enclosure (Section 5.2): a query point [(x, y)] selects every
    rectangle containing it. *)

type t = private {
  x1 : float;
  x2 : float;
  y1 : float;
  y2 : float;
  weight : float;
  id : int;
}

val make :
  ?id:int ->
  x1:float -> x2:float -> y1:float -> y2:float -> weight:float -> unit -> t
(** @raise Invalid_argument if a side is inverted or NaN. *)

val contains : t -> float * float -> bool

val compare_weight : t -> t -> int

val pp : Format.formatter -> t -> unit

val x_interval : t -> Topk_interval.Interval.t
(** The x-projection as a weighted interval carrying the same id and
    weight. *)

val y_interval : t -> Topk_interval.Interval.t

val of_boxes :
  Topk_util.Rng.t -> (float * float * float * float) array -> t array
(** Attach ids and distinct weights to raw [(x1, x2, y1, y2)] boxes
    from {!Topk_util.Gen.rectangles}. *)
