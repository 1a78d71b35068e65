module Clock = Topk_util.Clock

let bound = 50e-6

external yield : unit -> unit = "topk_spin_yield" [@@noalloc]

(* Every 32 polls the loop yields the CPU and reads the clock: a
   partner domain queued on this core then runs instead of waiting out
   the bound, and 32 [cpu_relax]es stay well inside the bound. *)
let until ready =
  ready ()
  ||
  let deadline = Clock.now () +. bound in
  let rec go i =
    Domain.cpu_relax ();
    ready ()
    || (i land 31 <> 0 || (yield (); Clock.now () < deadline)) && go (i + 1)
  in
  go 1
