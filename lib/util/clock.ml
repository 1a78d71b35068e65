(* Seconds on CLOCK_MONOTONIC, via bechamel's [noalloc] stub (ns). *)
let monotonic () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let source = Atomic.make monotonic

let now () = (Atomic.get source) ()

let with_source src f =
  let saved = Atomic.get source in
  Atomic.set source src;
  Fun.protect ~finally:(fun () -> Atomic.set source saved) f
