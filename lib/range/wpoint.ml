type t = {
  pos : float;
  weight : float;
  id : int;
}

let counter = ref 0

let make ?id ~pos ~weight () =
  if Float.is_nan pos then invalid_arg "Wpoint.make: NaN position";
  let id =
    match id with
    | Some i -> i
    | None ->
        incr counter;
        !counter
  in
  { pos; weight; id }

let compare_weight a b =
  match Float.compare a.weight b.weight with
  | 0 -> Int.compare a.id b.id
  | c -> c

let compare_pos a b =
  match Float.compare a.pos b.pos with
  | 0 -> Int.compare a.id b.id
  | c -> c

let pp ppf t = Format.fprintf ppf "%g@%g#%d" t.pos t.weight t.id

let of_positions rng positions =
  let weights = Topk_util.Gen.distinct_weights rng (Array.length positions) in
  Array.mapi
    (fun i pos -> make ~id:(i + 1) ~pos ~weight:weights.(i) ())
    positions
