(** Static convex hull (Andrew's monotone chain) with logarithmic
    extreme-vertex search — the per-layer primitive behind halfplane
    reporting [15] and the hull-tournament max structure.

    The hull is {e strict}: collinear boundary points are not vertices
    (they stay behind for deeper onion layers).  The vertex ring is
    counterclockwise. *)

type t

val of_points : Point2.t array -> t
(** O(n log n).  Duplicated coordinates are tolerated: one copy ends up
    a vertex, the rest are interior. *)

val of_sorted_points : Point2.t array -> t
(** O(n) when the input is already sorted lexicographically by
    [(x, y)]; the array is not modified.  Used by the onion-peeling
    loop, which sorts once and peels many times. *)

val is_empty : t -> bool

val ring : t -> Point2.t array
(** The hull vertices in counterclockwise order (empty for an empty
    input; a single vertex for degenerate inputs). *)

val extreme : t -> dir:float * float -> (int * Point2.t) option
(** [extreme t ~dir] is the ring index and vertex maximizing the dot
    product with [dir], found by binary search on the hull chains in
    [O(log h)] charged I/Os.  [None] on an empty hull.
    @raise Invalid_argument on a zero direction. *)

val report_halfplane : t -> Halfplane.t -> (Point2.t -> unit) -> int
(** Apply the callback to every hull vertex inside the halfplane by
    walking the ring outward from the extreme vertex (the inside
    vertices form one contiguous arc); returns the count.  Costs
    [O(log h)] plus one scanned element per report.  The callback may
    raise to stop early. *)

val space_words : t -> int
