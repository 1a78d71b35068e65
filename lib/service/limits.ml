type t = { budget : int option; deadline : float option }

let none = { budget = None; deadline = None }

let make ?budget ?deadline () =
  (match budget with
  | Some b when b < 0 ->
      invalid_arg (Printf.sprintf "Limits: budget must be >= 0 (got %d)" b)
  | _ -> ());
  { budget; deadline }
