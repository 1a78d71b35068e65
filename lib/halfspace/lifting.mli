(** The standard lifting trick [17] behind Corollary 1: map each point
    [x in R^d] onto the paraboloid point [(x, |x|^2) in R^(d+1)]; a
    ball query in [R^d] becomes a halfspace query in [R^(d+1)]:

    [dist(x, q) <= r  <=>  2 q . x - |x|^2 >= |q|^2 - r^2]. *)

val lift_points : Pointd.t array -> Pointd.t array
(** Same weights and ids, one extra coordinate [|x|^2] each. *)

val lift_ball : Predicates.Ball.t -> Predicates.Halfspace.t
(** The halfspace in [R^(d+1)] equivalent to the ball under
    {!lift_points}. *)
