module Clock = Topk_util.Clock
module Stats = Topk_em.Stats
module Fault = Topk_em.Fault
module Tr = Topk_trace.Trace
module Certify = Topk_trace.Certify

type spec = {
  instance : string;
  k : int;
  lane : Lane.t;  (* QoS lane the executor queues this request on *)
  limits : Limits.t;
  submitted : float;
}

type outcome = {
  o_status : Response.status;
  o_ios : int;
  o_latency : float;  (* seconds, submit to response *)
  o_verdict : bool option;  (* certification result, when checked *)
}

(* One execution attempt, classified for the supervisor.

   [Completed] means the future has been filled (successfully or with a
   permanent [Failed]) and the request is finished.  [Transient] means
   a retryable [Fault.Em_fault] escaped the query: the future is *not*
   filled, so the executor may re-enqueue the request (with backoff) or
   give up via [abort]. *)
type attempt = Completed of outcome | Transient of string

(* The erased form carried by the executor's queue: the typed query and
   the typed future are captured in the closures.  [run_] executes on a
   worker domain; [abort_] resolves the future with a permanent
   failure from any domain (worker, supervisor, or the shutdown path). *)
type t = {
  spec : spec;
  attempts : int ref;  (* executions started, including retries *)
  run_ : worker:int -> attempt:int -> attempt;
  abort_ : worker:int -> reason:Error.t -> outcome;
}

let spec t = t.spec

let attempts t = !(t.attempts)

(* The one request lifecycle, shared by queries and tasks.  [exec]
   runs an attempt's work under the root span [root] (after a
   [sched.dispatch] event) and returns its answers, status, cost and
   rounds.  A transient [Em_fault] escaping it leaves the future empty
   for a retry; any other exception fails the request.  [certify]
   judges a completed attempt's cost after its span has closed.  A
   request failed without running ([abort], or an exception) reports
   zero cost and [idle_rounds] rounds. *)
let lifecycle ~instance ~k ~lane ~limits ~root ~attrs ~idle_rounds ~certify
    exec =
  let submitted = Clock.now () in
  (* If the submitter is itself running under a trace (e.g. a scatter
     root), link the worker-side trace of this request back to it. *)
  let parent = Tr.current_trace_id () in
  let spec = { instance; k; lane; limits; submitted } in
  let attempts = ref 0 in
  let fut = Future.create () in
  (* [try_fill]: a request can race between its worker and the
     shutdown sweep; the first resolution wins and the other becomes a
     no-op instead of an exception that could kill a worker domain. *)
  let finish ~worker ~attempt ~trace_id ~certified
      (answers, status, cost, rounds) =
    let latency = Clock.now () -. submitted in
    ignore
      (Future.try_fill fut
         {
           Response.answers;
           status;
           summary =
             { Response.cost; rounds; attempts = attempt; certified };
           trace_id;
           latency;
           worker;
           instance;
           k;
           seq_token = None;
         }
        : bool);
    {
      o_status = status;
      o_ios = cost.Stats.ios;
      o_latency = latency;
      o_verdict = Option.map (fun v -> v.Certify.v_ok) certified;
    }
  in
  let failed reason =
    ([], Response.Failed reason, Stats.zero_snapshot, idle_rounds)
  in
  let run_ ~worker ~attempt =
    (* The whole attempt runs under a root span on the worker domain.
       A transient fault is caught *inside* the traced region so every
       open span unwinds before the executor decides to retry. *)
    let outcome, trace =
      Tr.with_root ?parent root
        ~attrs:
          (attrs @ [ ("attempt", Tr.Int attempt); ("worker", Tr.Int worker) ])
        (fun () ->
          (* The dispatch span: which lane the scheduler served this
             request from and how long it queued before a worker
             picked it up. *)
          Tr.event "sched.dispatch"
            ~attrs:
              [ ("lane", Tr.Str (Lane.name lane));
                ("queued_us",
                 Tr.Int
                   (int_of_float
                      ((Clock.now () -. submitted) *. 1e6))) ];
          match exec () with
          | result -> `Done result
          | exception Fault.Em_fault msg -> `Fault msg
          | exception e -> `Raised (Printexc.to_string e))
    in
    let trace_id = Option.map (fun (tr : Tr.t) -> tr.Tr.id) trace in
    match outcome with
    | `Done ((_, status, cost, _) as result) ->
        Completed
          (finish ~worker ~attempt ~trace_id ~certified:(certify status cost)
             result)
    | `Fault msg ->
        (* Retryable: the future stays empty for the next attempt. *)
        Transient msg
    | `Raised msg ->
        Completed
          (finish ~worker ~attempt ~trace_id ~certified:None
             (failed (Error.Failed msg)))
  in
  let abort_ ~worker ~reason =
    finish ~worker ~attempt:!attempts ~trace_id:None ~certified:None
      (failed reason)
  in
  ({ spec; attempts; run_; abort_ }, fut)

let prepare handle ?(lane = Lane.Interactive) ?(limits = Limits.none) q ~k =
  if k <= 0 then
    invalid_arg (Printf.sprintf "Request: k must be positive (got %d)" k);
  (match limits.Limits.budget with
  | Some b when b < 0 ->
      invalid_arg
        (Printf.sprintf "Request: budget must be >= 0 (got %d)" b)
  | _ -> ());
  let { Limits.budget; deadline } = limits in
  let instance = (Registry.info handle).Registry.name in
  (* Certify complete answers against the instance's registered cost
     model, if any; cutoffs did strictly less work than the bound
     assumes, so they are certified too.  Failures are not checked. *)
  let certify status cost =
    match status with
    | Response.Failed _ -> None
    | _ -> Certify.evaluate ~instance ~k ~measured:cost.Stats.ios ()
  in
  lifecycle ~instance ~k ~lane ~limits ~root:"request"
    ~attrs:[ ("instance", Tr.Str instance); ("k", Tr.Int k) ]
    ~idle_rounds:0 ~certify
    (fun () -> Registry.h_exec handle q ~k ~budget ~deadline)

(* A background job (e.g. an ingest level merge) travelling the same
   scheduler as queries — on its own QoS lane ([Batch] by default) so
   it never sits in front of interactive work: it shares the
   retry/supervision machinery — a transient [Em_fault] parks and
   retries with backoff, a worker crash before the pop loses nothing —
   but carries no query and returns no answers.  The job's EM cost is
   bracketed with [round_carry] exactly like a query's so it lands, in
   full, on the worker domain that ran it and shows up in
   [Stats.aggregate]; a job that raises keeps the cost it ran up. *)
let make_task ~name ?(lane = Lane.Batch) ?(limits = Limits.none) f =
  lifecycle ~instance:name ~k:0 ~lane ~limits ~root:"task"
    ~attrs:[ ("task", Tr.Str name) ]
    ~idle_rounds:1
    ~certify:(fun _ _ -> None)
    (fun () ->
      Stats.round_carry ();
      let before = Stats.snapshot () in
      let cost () =
        Stats.round_carry ();
        Stats.diff (Stats.snapshot ()) before
      in
      match f () with
      | () -> ([], Response.Complete, cost (), 1)
      | exception (Fault.Em_fault _ as fault) -> raise fault
      | exception e ->
          let reason = Error.Failed (Printexc.to_string e) in
          ([], Response.Failed reason, cost (), 1))

let run t ~worker =
  incr t.attempts;
  t.run_ ~worker ~attempt:!(t.attempts)

let abort t ~worker ~reason = t.abort_ ~worker ~reason
