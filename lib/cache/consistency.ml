type t = Any | At_least of int | Pinned of int | Max_lag of int

let validate = function
  | Any -> ()
  | At_least s when s < 0 ->
      invalid_arg
        (Printf.sprintf "Consistency: At_least seq must be >= 0 (got %d)" s)
  | Pinned p when p < 0 ->
      invalid_arg
        (Printf.sprintf "Consistency: Pinned version must be >= 0 (got %d)" p)
  | Max_lag l when l < 0 ->
      invalid_arg
        (Printf.sprintf "Consistency: Max_lag must be >= 0 (got %d)" l)
  | At_least _ | Pinned _ | Max_lag _ -> ()

(* The staleness rule of the answer cache.  A cached entry
   computed at [entry] may serve a read whose live version is
   [current] only within the same term — a failover may have truncated
   history, so cross-term sequences are incomparable — and never from
   the future ([entry.seq <= current.seq]; such entries are themselves
   fenced leftovers).  Within that:

   - [Any] asks for the freshest consistent answer, so only an entry
     at exactly the live version may substitute for recomputing: with
     no staleness opt-in, cache-on must be answer-identical to
     cache-off at every instant.
   - [At_least s] is a read-your-writes token: any snapshot at or
     above [s] serves.
   - [Pinned p] demands the exact snapshot [p].
   - [Max_lag l] accepts up to [l] sequence numbers of staleness. *)
let admits ~current ~entry t =
  Version.term entry = Version.term current
  && Version.seq entry <= Version.seq current
  &&
  match t with
  | Any -> Version.seq entry = Version.seq current
  | At_least s -> Version.seq entry >= s
  | Pinned p -> Version.seq entry = p
  | Max_lag l -> Version.seq current - Version.seq entry <= l

let to_string = function
  | Any -> "any"
  | At_least s -> Printf.sprintf "at-least:%d" s
  | Pinned p -> Printf.sprintf "pinned:%d" p
  | Max_lag l -> Printf.sprintf "max-lag:%d" l

let pp ppf t = Format.pp_print_string ppf (to_string t)
