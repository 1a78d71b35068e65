type t = {
  x1 : float;
  x2 : float;
  y1 : float;
  y2 : float;
  weight : float;
  id : int;
}

let counter = ref 0

let make ?id ~x1 ~x2 ~y1 ~y2 ~weight () =
  if
    Float.is_nan x1 || Float.is_nan x2 || Float.is_nan y1 || Float.is_nan y2
  then invalid_arg "Rect.make: NaN bound";
  if x1 > x2 || y1 > y2 then invalid_arg "Rect.make: inverted side";
  let id =
    match id with
    | Some i -> i
    | None ->
        incr counter;
        !counter
  in
  { x1; x2; y1; y2; weight; id }

let contains t (x, y) = t.x1 <= x && x <= t.x2 && t.y1 <= y && y <= t.y2

let compare_weight a b =
  match Float.compare a.weight b.weight with
  | 0 -> Int.compare a.id b.id
  | c -> c

let pp ppf t =
  Format.fprintf ppf "[%g,%g]x[%g,%g]@%g#%d" t.x1 t.x2 t.y1 t.y2 t.weight t.id

let x_interval t =
  Topk_interval.Interval.make ~id:t.id ~lo:t.x1 ~hi:t.x2 ~weight:t.weight ()

let y_interval t =
  Topk_interval.Interval.make ~id:t.id ~lo:t.y1 ~hi:t.y2 ~weight:t.weight ()

let of_boxes rng boxes =
  let weights = Topk_util.Gen.distinct_weights rng (Array.length boxes) in
  Array.mapi
    (fun i (x1, x2, y1, y2) ->
      make ~id:(i + 1) ~x1 ~x2 ~y1 ~y2 ~weight:weights.(i) ())
    boxes
