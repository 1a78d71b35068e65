(* Seeded, deterministic fault injection for the EM layer.

   A [plan] is installed globally (one atomic cell); every domain that
   touches a block while a plan is active draws from its own
   [Domain.DLS]-backed splitmix64 stream, seeded from the plan seed and
   a stable per-domain stream index — so a single-domain run replays
   the exact same fault sequence for the same plan, and a pool run is
   reproducible per (plan, stream).  Faults are charged to the
   per-domain counters in {!Stats} ([charge_fault] / [charge_spike]).

   Hooked into {!Stats.io_fault_hook}, so {e every} charged block I/O
   — direct [charge_ios] node visits, scans crossing a block boundary —
   can raise a transient [Em_fault] or stall in a simulated latency
   spike, whichever structure charged it.  The fast path — no plan
   installed — is a single atomic load. *)

exception Em_fault of string

type plan = {
  seed : int;
  io_fault_rate : float;
  latency_rate : float;
  latency_s : float;
  max_faults : int option;
}

let check_rate name r =
  if not (r >= 0. && r <= 1.) then
    invalid_arg (Printf.sprintf "Fault.plan: %s must be in [0,1] (got %g)" name r)

let plan ?(io_fault_rate = 0.05) ?(latency_rate = 0.) ?(latency_s = 1e-4)
    ?max_faults ~seed () =
  check_rate "io_fault_rate" io_fault_rate;
  check_rate "latency_rate" latency_rate;
  if latency_s < 0. then
    invalid_arg
      (Printf.sprintf "Fault.plan: latency_s must be >= 0 (got %g)" latency_s);
  (match max_faults with
  | Some m when m < 0 ->
      invalid_arg
        (Printf.sprintf "Fault.plan: max_faults must be >= 0 (got %d)" m)
  | _ -> ());
  { seed; io_fault_rate; latency_rate; latency_s; max_faults }

(* The installed plan, tagged with an epoch so per-domain streams
   reseed whenever a plan is (re)installed. *)
let current : (int * plan) option Atomic.t = Atomic.make None

let epochs = Atomic.make 0

(* Global count of injected faults, for the [max_faults] cap. *)
let injected_cap_count = Atomic.make 0

let install p =
  let e = 1 + Atomic.fetch_and_add epochs 1 in
  Atomic.set injected_cap_count 0;
  Atomic.set current (Some (e, p))

let clear () = Atomic.set current None

let active () = Option.map snd (Atomic.get current)

let with_plan p f =
  let saved = Atomic.get current in
  install p;
  Fun.protect ~finally:(fun () -> Atomic.set current saved) f

(* --- per-domain deterministic streams --- *)

type dls = {
  stream : int;  (* stable per-domain stream index, in DLS-init order *)
  mutable epoch : int;
  rng : Topk_util.Rng.Raw.t;  (* raw-seed splitmix64, see {!Topk_util.Rng.Raw} *)
}

let stream_counter = Atomic.make 0

let key =
  Domain.DLS.new_key (fun () ->
      {
        stream = Atomic.fetch_and_add stream_counter 1;
        epoch = -1;
        rng = Topk_util.Rng.Raw.create 0L;
      })

let uniform d = Topk_util.Rng.Raw.uniform d.rng

let seed_for p d = Int64.of_int (p.seed lxor ((d.stream + 1) * 0x9E3779B9))

let local (e, p) =
  let d = Domain.DLS.get key in
  if d.epoch <> e then begin
    d.epoch <- e;
    Topk_util.Rng.Raw.reseed d.rng (seed_for p d)
  end;
  d

let busy_wait s =
  if s > 0. then begin
    let until = Topk_util.Clock.now () +. s in
    while Topk_util.Clock.now () < until do
      Domain.cpu_relax ()
    done
  end

let under_cap p =
  match p.max_faults with
  | None -> true
  | Some m -> Atomic.get injected_cap_count < m

let maybe_fault p d rate what =
  if rate > 0. && uniform d < rate && under_cap p then begin
    Atomic.incr injected_cap_count;
    Stats.charge_fault ();
    raise (Em_fault what)
  end

(* Hook for one charged block I/O: a latency spike and/or a transient
   fault, in that order. *)
let tick_io () =
  match Atomic.get current with
  | None -> ()
  | Some ((_, p) as cur) ->
      let d = local cur in
      if p.latency_rate > 0. && uniform d < p.latency_rate then begin
        Stats.charge_spike ();
        busy_wait p.latency_s
      end;
      maybe_fault p d p.io_fault_rate "transient block I/O fault"

(* Install the forward hook in {!Stats}: every charged block I/O —
   a direct [charge_ios] (tree node visits) or a scan crossing a block
   boundary — draws from the plan once per I/O. *)
let () = Stats.io_fault_hook := fun n -> for _ = 1 to n do tick_io () done

let injected_total () = Stats.faults_total ()

let spikes_total () = Stats.spikes_total ()

let pp_plan ppf p =
  Format.fprintf ppf
    "@[<h>fault-plan{seed=%d io=%.3g latency=%.3g/%.0fus%s}@]"
    p.seed p.io_fault_rate p.latency_rate
    (p.latency_s *. 1e6)
    (match p.max_faults with
    | None -> ""
    | Some m -> Printf.sprintf " cap=%d" m)
