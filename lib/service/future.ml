(* The whole cell is one atomic: pending with the callbacks to run on
   fill, or filled.  Filling is a compare-and-set, so neither side
   takes a lock on the hand-off.  An awaiter that outlasts
   [Spin.bound] parks on a mutex and condition it creates for itself,
   woken by an ordinary [on_fill] callback. *)
type 'a state = Pending of ('a -> unit) list | Filled of 'a

type 'a t = 'a state Atomic.t

let create () = Atomic.make (Pending [])

(* Every callback runs even if an earlier one raises, so a raising
   callback cannot strand a parked awaiter; the first exception is
   re-raised afterwards. *)
let run_all fs v =
  let first_error =
    List.fold_left
      (fun err f ->
        match f v with
        | () -> err
        | exception e -> if Option.is_none err then Some e else err)
      None fs
  in
  Option.iter raise first_error

let rec try_fill t v =
  match Atomic.get t with
  | Filled _ -> false
  | Pending fs as seen ->
      if Atomic.compare_and_set t seen (Filled v) then begin
        (* Callbacks run on the filling domain, after the value is
           published, so they may await other futures (but not
           re-fill this one). *)
        run_all fs v;
        true
      end
      else try_fill t v

let fill t v =
  if not (try_fill t v) then invalid_arg "Future.fill: already filled"

let poll t = match Atomic.get t with Filled v -> Some v | Pending _ -> None

let rec on_fill t f =
  match Atomic.get t with
  | Filled v -> f v
  | Pending fs as seen ->
      if not (Atomic.compare_and_set t seen (Pending (f :: fs))) then
        on_fill t f

let is_filled t = match Atomic.get t with Filled _ -> true | Pending _ -> false

(* The waker takes [m] before signalling, and the awaiter tests the
   cell under [m] before each wait, so a fill cannot slip between the
   test and the wait. *)
let park t =
  let m = Mutex.create () and c = Condition.create () in
  on_fill t (fun _ -> Mutex.protect m (fun () -> Condition.broadcast c));
  Mutex.protect m (fun () ->
      while not (is_filled t) do
        Condition.wait c m
      done)

let await t =
  if not (Spin.until (fun () -> is_filled t)) then park t;
  match Atomic.get t with Filled v -> v | Pending _ -> assert false
