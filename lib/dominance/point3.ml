type t = {
  x : float;
  y : float;
  z : float;
  weight : float;
  id : int;
}

let counter = ref 0

let make ?id ~x ~y ~z ~weight () =
  if Float.is_nan x || Float.is_nan y || Float.is_nan z then
    invalid_arg "Point3.make: NaN coordinate";
  let id =
    match id with
    | Some i -> i
    | None ->
        incr counter;
        !counter
  in
  { x; y; z; weight; id }

let dominated_by t (x, y, z) = t.x <= x && t.y <= y && t.z <= z

let compare_weight a b =
  match Float.compare a.weight b.weight with
  | 0 -> Int.compare a.id b.id
  | c -> c

let pp ppf t =
  Format.fprintf ppf "(%g, %g, %g)@%g#%d" t.x t.y t.z t.weight t.id

let of_coords rng coords =
  let weights = Topk_util.Gen.distinct_weights rng (Array.length coords) in
  Array.mapi
    (fun i (x, y, z) -> make ~id:(i + 1) ~x ~y ~z ~weight:weights.(i) ())
    coords
