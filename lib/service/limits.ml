type horizon = Unbounded | At of float | Within of float

type t = { budget : int option; horizon : horizon }

let none = { budget = None; horizon = Unbounded }

let check_budget = function
  | Some b when b < 0 ->
      invalid_arg (Printf.sprintf "Limits: budget must be >= 0 (got %d)" b)
  | _ -> ()

let make ?budget ?timeout ?deadline () =
  check_budget budget;
  let horizon =
    match (timeout, deadline) with
    | Some _, Some _ ->
        invalid_arg "Limits.make: pass either ~timeout or ~deadline, not both"
    | Some s, None -> Within s
    | None, Some d -> At d
    | None, None -> Unbounded
  in
  { budget; horizon }

let resolve t ~now =
  let deadline =
    match t.horizon with
    | Unbounded -> None
    | At d -> Some d
    | Within s -> Some (now +. s)
  in
  (t.budget, deadline)

let pp ppf t =
  let b =
    match t.budget with None -> "inf" | Some b -> string_of_int b
  in
  let h =
    match t.horizon with
    | Unbounded -> "unbounded"
    | At d -> Printf.sprintf "at %.3f" d
    | Within s -> Printf.sprintf "within %.3fs" s
  in
  Format.fprintf ppf "@[<h>budget=%s horizon=%s@]" b h
