type t = {
  x : float;
  y : float;
  weight : float;
  id : int;
}

let counter = ref 0

let make ?id ~x ~y ~weight () =
  if Float.is_nan x || Float.is_nan y then
    invalid_arg "Point2.make: NaN coordinate";
  let id =
    match id with
    | Some i -> i
    | None ->
        incr counter;
        !counter
  in
  { x; y; weight; id }

let compare_weight a b =
  match Float.compare a.weight b.weight with
  | 0 -> Int.compare a.id b.id
  | c -> c

let dot p (a, b) = (a *. p.x) +. (b *. p.y)

let orient p q r =
  ((q.x -. p.x) *. (r.y -. p.y)) -. ((q.y -. p.y) *. (r.x -. p.x))

let dist2 p (cx, cy) =
  let dx = p.x -. cx and dy = p.y -. cy in
  (dx *. dx) +. (dy *. dy)

let pp ppf p = Format.fprintf ppf "(%g, %g)@%g#%d" p.x p.y p.weight p.id

let of_coords rng coords =
  let weights = Topk_util.Gen.distinct_weights rng (Array.length coords) in
  Array.mapi
    (fun i (x, y) -> make ~id:(i + 1) ~x ~y ~weight:weights.(i) ())
    coords
