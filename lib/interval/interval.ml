type t = {
  lo : float;
  hi : float;
  weight : float;
  id : int;
}

let counter = ref 0

let fresh_id () =
  incr counter;
  !counter

let make ?id ~lo ~hi ~weight () =
  if Float.is_nan lo || Float.is_nan hi then
    invalid_arg "Interval.make: NaN bound";
  if lo > hi then invalid_arg "Interval.make: lo > hi";
  let id = match id with Some i -> i | None -> fresh_id () in
  { lo; hi; weight; id }

let contains t q = t.lo <= q && q <= t.hi

let compare_weight a b =
  match Float.compare a.weight b.weight with
  | 0 -> Int.compare a.id b.id
  | c -> c

let pp ppf t =
  Format.fprintf ppf "[%g, %g]@%g#%d" t.lo t.hi t.weight t.id

let of_spans rng spans =
  let weights = Topk_util.Gen.distinct_weights rng (Array.length spans) in
  Array.mapi
    (fun i (lo, hi) -> make ~id:(i + 1) ~lo ~hi ~weight:weights.(i) ())
    spans
