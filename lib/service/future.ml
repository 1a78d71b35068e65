type 'a t = {
  mutex : Mutex.t;
  cond : Condition.t;
  mutable cell : 'a option;
  mutable waiters : ('a -> unit) list;  (* on_fill callbacks, LIFO *)
}

let create () =
  {
    mutex = Mutex.create ();
    cond = Condition.create ();
    cell = None;
    waiters = [];
  }

let try_fill t v =
  let filled, waiters =
    Mutex.protect t.mutex (fun () ->
        match t.cell with
        | Some _ -> (false, [])
        | None ->
            t.cell <- Some v;
            Condition.broadcast t.cond;
            let w = t.waiters in
            t.waiters <- [];
            (true, w))
  in
  (* Callbacks run on the filling domain, outside the mutex, so they
     may await other futures (but not re-fill this one). *)
  if filled then List.iter (fun f -> f v) waiters;
  filled

let fill t v =
  if not (try_fill t v) then invalid_arg "Future.fill: already filled"

let await t =
  Mutex.protect t.mutex (fun () ->
      let rec wait () =
        match t.cell with
        | Some v -> v
        | None ->
            Condition.wait t.cond t.mutex;
            wait ()
      in
      wait ())

let poll t = Mutex.protect t.mutex (fun () -> t.cell)

let on_fill t f =
  let now =
    Mutex.protect t.mutex (fun () ->
        match t.cell with
        | Some v -> Some v
        | None ->
            t.waiters <- f :: t.waiters;
            None)
  in
  match now with Some v -> f v | None -> ()
