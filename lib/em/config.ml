type mode = Ram | Em

type t = {
  mode : mode;
  b : int;
}

let ram = { mode = Ram; b = 1 }

let em ~b () =
  if b < 2 then invalid_arg "Config.em: block size must be >= 2";
  { mode = Em; b }

let default = em ~b:64 ()

let state = ref default

let current () = !state

let set c = state := c

let with_model c f =
  let saved = !state in
  state := c;
  Fun.protect ~finally:(fun () -> state := saved) f

let blocks_of_words c w = if w <= 0 then 0 else (w + c.b - 1) / c.b

let pp ppf c =
  match c.mode with
  | Ram -> Format.fprintf ppf "RAM"
  | Em -> Format.fprintf ppf "EM(B=%d)" c.b
