(* Failure-rate-driven circuit breaker / admission controller.

   Classic three-state machine in front of the executor's queue:

     Closed     — admit everything; track the last [window] final
                  outcomes in a ring.  When at least [min_samples]
                  outcomes are present and the failure fraction
                  reaches [failure_threshold], trip to Open.
     Open       — reject every admission for [open_duration] seconds,
                  then move to Half_open on the next admission check.
     Half_open  — admit at most [half_open_probes] probe requests.
                  [half_open_probes] successes close the breaker
                  (ring reset); any failure re-opens it.

   Only *final* outcomes count: a transient fault that is retried and
   eventually succeeds is one success, a request whose retries are
   exhausted is one failure.  Outcomes are reported by worker domains,
   admissions come from submitter threads, so all state is behind one
   small mutex (the executor already serialises submissions on its own
   queue mutex; this lock is never held while running a query). *)

type state = Closed | Open | Half_open

type policy = {
  window : int;
  failure_threshold : float;
  min_samples : int;
  open_duration : float;
  half_open_probes : int;
}

let default_policy =
  {
    window = 128;
    failure_threshold = 0.5;
    min_samples = 32;
    open_duration = 1.0;
    half_open_probes = 4;
  }

let validate_policy p =
  if p.window < 1 then invalid_arg "Breaker: window must be >= 1";
  if not (p.failure_threshold > 0. && p.failure_threshold <= 1.) then
    invalid_arg "Breaker: failure_threshold must be in (0,1]";
  if p.min_samples < 1 then invalid_arg "Breaker: min_samples must be >= 1";
  if p.min_samples > p.window then
    invalid_arg "Breaker: min_samples must be <= window";
  if not (p.open_duration >= 0.) then
    invalid_arg "Breaker: open_duration must be >= 0";
  if p.half_open_probes < 1 then
    invalid_arg "Breaker: half_open_probes must be >= 1"

type t = {
  policy : policy;
  mutex : Mutex.t;
  on_transition : state -> unit;  (* called outside holding [mutex]?  no:
                                     called while holding it; keep hooks
                                     trivial (metrics updates only). *)
  ring : bool array;              (* true = failure *)
  mutable ring_len : int;         (* outcomes recorded, <= window *)
  mutable ring_pos : int;         (* next slot to overwrite *)
  mutable ring_failures : int;    (* failures currently in the ring *)
  mutable state : state;
  mutable opened_at : float;
  mutable probes_inflight : int;
  mutable probe_successes : int;
  mutable opens : int;            (* cumulative Closed/Half_open -> Open *)
}

let create ?(policy = default_policy) ?(on_transition = fun _ -> ()) () =
  validate_policy policy;
  {
    policy;
    mutex = Mutex.create ();
    on_transition;
    ring = Array.make policy.window false;
    ring_len = 0;
    ring_pos = 0;
    ring_failures = 0;
    state = Closed;
    opened_at = neg_infinity;
    probes_inflight = 0;
    probe_successes = 0;
    opens = 0;
  }

let reset_ring t =
  Array.fill t.ring 0 (Array.length t.ring) false;
  t.ring_len <- 0;
  t.ring_pos <- 0;
  t.ring_failures <- 0

let transition t s =
  if t.state <> s then begin
    t.state <- s;
    (match s with
    | Open -> t.opens <- t.opens + 1
    | Half_open ->
        t.probes_inflight <- 0;
        t.probe_successes <- 0
    | Closed -> reset_ring t);
    t.on_transition s
  end

let push_outcome t ~failed =
  if t.ring_len = t.policy.window then begin
    (* overwrite the oldest entry *)
    if t.ring.(t.ring_pos) then t.ring_failures <- t.ring_failures - 1
  end
  else t.ring_len <- t.ring_len + 1;
  t.ring.(t.ring_pos) <- failed;
  if failed then t.ring_failures <- t.ring_failures + 1;
  t.ring_pos <- (t.ring_pos + 1) mod t.policy.window

let failure_rate t =
  if t.ring_len = 0 then 0.
  else float_of_int t.ring_failures /. float_of_int t.ring_len

let admit t ~now =
  Mutex.protect t.mutex (fun () ->
      match t.state with
      | Closed -> true
      | Open ->
          if now -. t.opened_at >= t.policy.open_duration then begin
            transition t Half_open;
            t.probes_inflight <- 1;
            true
          end
          else false
      | Half_open ->
          if t.probes_inflight < t.policy.half_open_probes then begin
            t.probes_inflight <- t.probes_inflight + 1;
            true
          end
          else false)

let record t ~now ~ok =
  Mutex.protect t.mutex (fun () ->
      match t.state with
      | Closed ->
          push_outcome t ~failed:(not ok);
          if
            t.ring_len >= t.policy.min_samples
            && failure_rate t >= t.policy.failure_threshold
          then begin
            t.opened_at <- now;
            transition t Open
          end
      | Half_open ->
          (* Late outcomes from requests admitted before the trip can
             land here too; the inflight floor keeps them harmless. *)
          t.probes_inflight <- max 0 (t.probes_inflight - 1);
          if ok then begin
            t.probe_successes <- t.probe_successes + 1;
            if t.probe_successes >= t.policy.half_open_probes then
              transition t Closed
          end
          else begin
            t.opened_at <- now;
            transition t Open
          end
      | Open ->
          (* A straggler finishing after the trip: nothing to decide. *)
          ())

let state t = Mutex.protect t.mutex (fun () -> t.state)

let opens t = Mutex.protect t.mutex (fun () -> t.opens)

let state_code = function Closed -> 0 | Half_open -> 1 | Open -> 2

let state_string = function
  | Closed -> "closed"
  | Half_open -> "half-open"
  | Open -> "open"
