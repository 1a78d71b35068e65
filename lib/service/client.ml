module Clock = Topk_util.Clock
module Stats = Topk_em.Stats
module Tr = Topk_trace.Trace
module Cache = Topk_cache.Cache
module Version = Topk_cache.Version

(* The payloads of differently-typed handles share one cache, so the
   answer arrays are erased into the classic exception universal: each
   [attach] mints a fresh local exception constructor, giving an
   injection the matching projection alone can reverse.  A projection
   mismatch (impossible unless two handles share an instance name)
   degrades to a miss, never to a wrongly-typed answer. *)
type univ = exn

type t = {
  cache : univ Cache.t option;  (* [None]: caching disabled *)
  metrics : Metrics.t;
}

type ('q, 'e) source =
  | Direct of ('q, 'e) Registry.handle
  | Pooled of Executor.t * ('q, 'e) Registry.handle
  | Endpoint of
      string
      * (?limits:Limits.t ->
        ?consistency:Consistency.t ->
        'q ->
        k:int ->
        'e Response.t)

type ('q, 'e) handle = {
  client : t;
  name : string;
  source : ('q, 'e) source;
  version : unit -> Version.t;
  versioned : bool;  (* a real sampler was supplied: stamp seq tokens *)
  qkey : 'q -> string;
  inj : 'e array -> univ;
  prj : univ -> 'e array option;
}

let create ?(cache = true) ?cache_stripes ?cache_capacity ?cache_min_cost
    ?metrics () =
  let metrics =
    match metrics with Some m -> m | None -> Metrics.create ()
  in
  let cache =
    if not cache then None
    else
      Some
        (Cache.create ?stripes:cache_stripes ?capacity:cache_capacity
           ?min_cost:cache_min_cost
           ~on_evict:(fun () ->
             Metrics.Counter.incr metrics.Metrics.cache_evictions)
           ())
  in
  { cache; metrics }

let metrics t = t.metrics

let cache_stats t = Option.map Cache.stats t.cache

let direct h = Direct h

let pooled pool h = Pooled (pool, h)

let endpoint ~name f = Endpoint (name, f)

(* Queries are plain data in every problem family (points, intervals,
   boxes, halfspace coefficients), so their runtime representation is
   a faithful canonical key.  A query type containing functions or
   cyclic values needs an explicit [~qkey]. *)
let marshal_qkey q = Marshal.to_string q []

let attach (type q e) client ?version ?qkey (source : (q, e) source) :
    (q, e) handle =
  let module M = struct
    exception Payload of e array
  end in
  let name =
    match source with
    | Direct h | Pooled (_, h) -> (Registry.info h).Registry.name
    | Endpoint (n, _) -> n
  in
  {
    client;
    name;
    source;
    version =
      (match version with Some f -> f | None -> fun () -> Version.static);
    versioned = Option.is_some version;
    qkey = (match qkey with Some f -> f | None -> marshal_qkey);
    inj = (fun v -> M.Payload v);
    prj = (function M.Payload v -> Some v | _ -> None);
  }

let name h = h.name

(* A response produced on the calling domain without executing the
   query: cache hits and fast-path refusals. *)
let local_response h ~k ?(answers = []) ?seq_token ?trace_id
    ?(summary = Response.zero_summary) ~since status =
  let fut = Future.create () in
  Future.fill fut
    {
      Response.answers;
      status;
      summary;
      trace_id;
      latency = Clock.now () -. since;
      worker = -1;
      instance = h.name;
      k;
      seq_token;
    };
  fut

(* Offer a completed response to the cache.  [v0] is the instance
   version sampled when the query was dispatched: if the live version
   moved while the query was in flight, the answer may straddle the
   update and is not admitted (the version tag could not be trusted).
   The entry is tagged with the response's own seq token when it
   carries one (a replica may answer from behind the head), falling
   back to [v0].  The answers are stored as an array, copied once
   here: a third of the words of the list, and a hit slices it with
   {!Cache.prefix}. *)
let offer h ~qkey ~k ~v0 (resp : _ Response.t) =
  match (h.client.cache, resp.Response.status) with
  | Some cache, Response.Complete ->
      let v1 = h.version () in
      if Version.equal v0 v1 then begin
        let version =
          match resp.Response.seq_token with
          | Some seq when h.versioned ->
              Version.make ~term:(Version.term v0) ~seq
          | _ -> v0
        in
        let cost = (Response.cost resp).Stats.ios in
        let answers = Array.of_list resp.Response.answers in
        match
          Cache.admit cache ~instance:h.name ~qkey ~version ~k
            ~len:(Array.length answers) ~cost ~now:(Clock.now ())
            (h.inj answers)
        with
        | `Admitted -> Tr.event "cache.admit" ~attrs:[ ("k", Tr.Int k) ]
        | `Bypassed ->
            Metrics.Counter.incr h.client.metrics.Metrics.cache_bypasses
        | `Superseded -> ()
      end
  | _ -> ()

(* Serve a hit: zero charged I/O, under its own root span so traced
   runs show the query was answered without touching the index. *)
let serve_hit h ~k ~since ~current (entry : univ Cache.entry) answers =
  let open Cache in
  let age_us = int_of_float ((Clock.now () -. entry.e_inserted) *. 1e6) in
  let m = h.client.metrics in
  Metrics.Counter.incr m.Metrics.cache_hits;
  Metrics.Histogram.observe m.Metrics.cache_hit_age_us age_us;
  let (), trace =
    Tr.with_root "cache.hit"
      ~attrs:
        [ ("instance", Tr.Str h.name);
          ("k", Tr.Int k);
          ("age_us", Tr.Int age_us);
          ("entry_seq", Tr.Int (Version.seq entry.e_version));
          ("head_seq", Tr.Int (Version.seq current)) ]
      (fun () -> ())
  in
  let trace_id = Option.map (fun (tr : Tr.t) -> tr.Tr.id) trace in
  let seq_token =
    if h.versioned then Some (Version.seq entry.e_version) else None
  in
  local_response h ~k ~answers:(Cache.prefix answers ~k) ?seq_token ?trace_id
    ~since Response.Complete

let run_direct handle ?limits q ~k =
  let req, fut = Request.prepare handle ?limits q ~k in
  (* The calling domain is the worker: retry transient faults like the
     pool would, with no backoff (there is no queue to yield to). *)
  let rec go () =
    match Request.run req ~worker:(-1) with
    | Request.Completed _ -> ()
    | Request.Transient msg -> (
        match
          Executor.give_up Executor.default_retry_policy req ~worker:(-1) msg
        with
        | Some _ -> ()
        | None -> go ())
  in
  go ();
  fut

let query ?(limits = Limits.none) ?(consistency = Consistency.Any) h q ~k :
    _ Response.t Future.t =
  if k <= 0 then
    invalid_arg
      (Printf.sprintf "Client.query: k must be positive (got %d)" k);
  Consistency.validate consistency;
  let since = Clock.now () in
  match limits.Limits.deadline with
  | Some d when d <= since ->
      (* Dead on arrival: refuse without charging anything. *)
      local_response h ~k ~since (Response.Failed Error.Deadline)
  | _ -> (
      let m = h.client.metrics in
      let qkey = h.qkey q in
      let current = h.version () in
      (* A budgeted query may legitimately return a cutoff prefix; a
         cached complete answer would differ from it, so budget runs
         bypass the cache to keep cache-on ≡ cache-off exact. *)
      let consult =
        match (h.client.cache, limits.Limits.budget) with
        | Some cache, None -> Some cache
        | Some _, Some _ ->
            Metrics.Counter.incr m.Metrics.cache_bypasses;
            None
        | None, _ -> None
      in
      let hit =
        match consult with
        | None -> None
        | Some cache -> (
            match
              Cache.find cache ~instance:h.name ~qkey ~current ~consistency
                ~k ~now:since ()
            with
            | Cache.Hit entry -> (
                match h.prj entry.Cache.e_payload with
                | Some answers -> Some (entry, answers)
                | None -> None)
            | Cache.Stale | Cache.Miss -> None)
      in
      match hit with
      | Some (entry, answers) -> serve_hit h ~k ~since ~current entry answers
      | None ->
          if consult <> None then begin
            Metrics.Counter.incr m.Metrics.cache_misses;
            Tr.event "cache.miss" ~attrs:[ ("instance", Tr.Str h.name) ]
          end;
          let dispatch () =
            match h.source with
            | Endpoint (_, f) ->
                let fut = Future.create () in
                Future.fill fut (f ~limits ~consistency q ~k);
                fut
            | Direct handle | Pooled (_, handle)
              when not
                     (Consistency.admits ~current ~entry:current consistency)
              ->
                (* A single live snapshot either satisfies the level or
                   nothing does: shed rather than serve a wrong-era
                   answer. *)
                ignore (handle : _ Registry.handle);
                local_response h ~k ~since (Response.Failed Error.Shed)
            | Direct handle -> run_direct handle ~limits q ~k
            | Pooled (pool, handle) -> (
                match
                  Executor.submit pool handle ~lane:Lane.Interactive ~limits
                    q ~k
                with
                | fut -> fut
                | exception Error.Error e ->
                    (* Uniform surface: admission refusals become
                       [Failed] responses, not exceptions. *)
                    local_response h ~k ~since (Response.Failed e))
          in
          let fut = dispatch () in
          if consult <> None then
            Future.on_fill fut (fun resp -> offer h ~qkey ~k ~v0:current resp);
          fut)

let query_sync ?limits ?consistency h q ~k =
  Future.await (query ?limits ?consistency h q ~k)

let invalidate h q =
  match h.client.cache with
  | None -> false
  | Some cache -> Cache.invalidate cache ~instance:h.name ~qkey:(h.qkey q)
