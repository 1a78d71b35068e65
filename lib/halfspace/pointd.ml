type t = {
  coords : float array;
  weight : float;
  id : int;
}

let counter = ref 0

let make ?id ~coords ~weight () =
  if Array.length coords = 0 then invalid_arg "Pointd.make: empty vector";
  if Array.exists Float.is_nan coords then
    invalid_arg "Pointd.make: NaN coordinate";
  let id =
    match id with
    | Some i -> i
    | None ->
        incr counter;
        !counter
  in
  { coords = Array.copy coords; weight; id }

let dim t = Array.length t.coords

let compare_weight a b =
  match Float.compare a.weight b.weight with
  | 0 -> Int.compare a.id b.id
  | c -> c

let dot t v =
  let d = Array.length t.coords in
  if Array.length v <> d then invalid_arg "Pointd.dot: dimension mismatch";
  let acc = ref 0. in
  for i = 0 to d - 1 do
    acc := !acc +. (t.coords.(i) *. v.(i))
  done;
  !acc

let dist2 t center =
  let d = Array.length t.coords in
  if Array.length center <> d then
    invalid_arg "Pointd.dist2: dimension mismatch";
  let acc = ref 0. in
  for i = 0 to d - 1 do
    let delta = t.coords.(i) -. center.(i) in
    acc := !acc +. (delta *. delta)
  done;
  !acc

let pp ppf t =
  Format.fprintf ppf "(%s)@%g#%d"
    (String.concat ", "
       (Array.to_list (Array.map (Printf.sprintf "%g") t.coords)))
    t.weight t.id

let of_coords rng coords =
  let weights = Topk_util.Gen.distinct_weights rng (Array.length coords) in
  Array.mapi
    (fun i c -> make ~id:(i + 1) ~coords:c ~weight:weights.(i) ())
    coords

let of_point2 (p : Topk_geom.Point2.t) =
  make ~id:p.Topk_geom.Point2.id
    ~coords:[| p.Topk_geom.Point2.x; p.Topk_geom.Point2.y |]
    ~weight:p.Topk_geom.Point2.weight ()
