type t =
  | Overloaded
  | Not_found of string list
  | Deadline
  | Shed
  | Failed of string

exception Error of t

let fail e = raise (Error e)

let to_string = function
  | Overloaded -> "overloaded"
  | Not_found [] -> "not found"
  | Not_found (best :: _) ->
      Printf.sprintf "not found (did you mean %S?)" best
  | Deadline -> "deadline"
  | Shed -> "shed"
  | Failed msg -> msg

let pp ppf t = Format.pp_print_string ppf (to_string t)

(* Registered so an escaped [Error] prints its vocabulary instead of
   an opaque constructor dump. *)
let () =
  Printexc.register_printer (function
    | Error e -> Some (Printf.sprintf "Topk_service.Error.Error(%s)" (to_string e))
    | _ -> None)
