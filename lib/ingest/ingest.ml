(* Live ingestion: bounded update log -> sealed level-0 runs ->
   geometric background merges -> epoch-published level sets.
   See ingest.mli for the contract. *)

module Sigs = Topk_core.Sigs
module Stats = Topk_em.Stats
module Fault = Topk_em.Fault
module Tr = Topk_trace.Trace
module Executor = Topk_service.Executor
module Registry = Topk_service.Registry
module Metrics = Topk_service.Metrics
module Future = Topk_service.Future
module Response = Topk_service.Response
module Gather = Topk_shard.Gather
module Clock = Topk_util.Clock
module Log = Update_log

let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: r -> drop (n - 1) r

(* Transient EM faults during inline (writer-side) sealing are retried
   in place, mirroring the executor's treatment of worker-side jobs. *)
let rec with_retries n f =
  try f () with Fault.Em_fault _ when n > 1 -> with_retries (n - 1) f

(* ---- durability hooks ----

   A [sink] is the write-ahead observer the durable layer
   ({!Topk_durable.Store}) installs: every accepted update is offered
   to [s_append] {e before} it lands in the in-memory log (WAL-first
   discipline), and every epoch publish — seal, merge, freeze — is
   reported through [s_event] together with a portable description of
   the full run list and the unsealed log suffix, which is everything
   a checkpoint needs.  All sink calls happen under the wrapper's
   mutex, so the sink needs no locking of its own; a sink that raises
   (a simulated disk crash) aborts the triggering operation before the
   in-memory state acknowledges it. *)

type 'e run_data = {
  rd_level : int;
  rd_seq : int;
  rd_elems : 'e array;
  rd_dead : int array;
}

type event = Sealed | Merged | Frozen

type 'e sink = {
  s_append : 'e Log.entry -> unit;
  s_event : event -> runs:'e run_data list -> log:'e Log.entry list -> unit;
}

module Make (T : Sigs.TOPK) = struct
  module P = T.P
  module W = Sigs.Weight_order (P)

  (* One immutable run.  [r_ids] are the ids of the live elements baked
     into the run; [r_dead] are the tombstones it carries against
     strictly older runs.  Both tables override older sources at query
     time (newest wins). *)
  type run = {
    r_level : int;
    r_seq : int;  (* newest op sequence folded into this run *)
    r_elems : P.elem array;
    r_topk : T.t;
    r_ids : (int, unit) Hashtbl.t;
    r_dead : (int, unit) Hashtbl.t;
  }

  (* A version is the immutable level set, newest run first; the base
     (the initially-built structure) is the last run. *)
  type version = run list

  type t = {
    mu : Mutex.t;
    params : Topk_core.Params.t option;
    buffer_cap : int;
    fanout : int;
    name : string;
    epochs : version Epoch.t;
    log : P.elem Log.t;
    log_state : (int, bool) Hashtbl.t;  (* latest op per id in the log *)
    mutable seq : int;
    mutable live : int;
    mutable frozen : bool;
    mutable merging : bool;  (* one background merge outstanding at most *)
    mutable wedged : bool;   (* a merge failed permanently; stop scheduling *)
    mutable merge_gen : int; (* bumped when a merge is scheduled or retired *)
    mutable pending : unit Response.t Future.t option;
    pool : Executor.t option;
    metrics : Metrics.t option;
    sink : P.elem sink option;
  }

  (* A merge job: its inputs (a physically contiguous, same-level block
     of the run list, newest first) and whether the block includes the
     globally oldest run — in which case tombstones can be purged,
     because there is nothing older left for them to kill. *)
  type job = { j_inputs : run list; j_purge : bool }

  type view = {
    w_pin : version Epoch.pin;
    w_runs : run list;
    w_log : P.elem Log.entry array;
    w_log_len : int;
  }

  let m_counter t f = match t.metrics with Some m -> Metrics.Counter.incr (f m) | None -> ()

  let update_lag t =
    match t.metrics with
    | Some m -> Metrics.Gauge.set m.Metrics.epoch_lag (Epoch.lag t.epochs)
    | None -> ()

  let ids_of elems =
    let h = Hashtbl.create (max 16 (Array.length elems)) in
    Array.iter (fun e -> Hashtbl.replace h (P.id e) ()) elems;
    h

  let mk_run ?params ~level ~seq ~dead elems =
    {
      r_level = level;
      r_seq = seq;
      r_elems = elems;
      r_topk = T.build ?params elems;
      r_ids = ids_of elems;
      r_dead = dead;
    }

  (* The base enters the hierarchy at the level a merged run of its
     size would occupy, so compaction eventually reaches (and purges
     through) it. *)
  let level_of_size ~cap ~fanout n =
    let rec go level capacity =
      if capacity >= n || level >= 60 then level else go (level + 1) (capacity * fanout)
    in
    go 0 cap

  let run_data_of r =
    {
      rd_level = r.r_level;
      rd_seq = r.r_seq;
      rd_elems = r.r_elems;
      rd_dead = Array.of_seq (Seq.map fst (Hashtbl.to_seq r.r_dead));
    }

  (* Call with [t.mu] held. *)
  let run_datas_locked t = List.map run_data_of (Epoch.current t.epochs)

  let log_entries_locked t =
    let arr, len = Log.view t.log in
    Array.to_list (Array.sub arr 0 len)

  let emit_locked t ev =
    match t.sink with
    | None -> ()
    | Some s ->
        s.s_event ev ~runs:(run_datas_locked t) ~log:(log_entries_locked t)

  (* The one constructor: [entry] names the public entry point in
     validation errors; [runs ()] builds the run list (newest first)
     and its live count once the shared arguments are valid. *)
  let make ~entry ?params ~buffer_cap ~fanout ?pool ?metrics ?sink ~seq runs =
    if buffer_cap < 1 then
      invalid_arg
        (Printf.sprintf "%s: buffer_cap must be >= 1 (got %d)" entry
           buffer_cap);
    if fanout < 2 then
      invalid_arg
        (Printf.sprintf "%s: fanout must be >= 2 (got %d)" entry fanout);
    let rs, live = runs () in
    {
      mu = Mutex.create ();
      params;
      buffer_cap;
      fanout;
      name = "ingest(" ^ T.name ^ ")";
      epochs = Epoch.create rs;
      log = Log.create ~cap:buffer_cap;
      log_state = Hashtbl.create (max 16 buffer_cap);
      seq;
      live;
      frozen = false;
      merging = false;
      wedged = false;
      merge_gen = 0;
      pending = None;
      pool;
      metrics = Executor.resolve_metrics ?metrics pool;
      sink;
    }

  let create ?params ?(buffer_cap = 1024) ?(fanout = 4) ?pool ?metrics ?sink
      elems =
    make ~entry:"Ingest.create" ?params ~buffer_cap ~fanout ?pool ?metrics
      ?sink ~seq:1 (fun () ->
        let elems = Array.copy elems in
        let n = Array.length elems in
        let level = level_of_size ~cap:buffer_cap ~fanout n in
        ([ mk_run ?params ~level ~seq:0 ~dead:(Hashtbl.create 1) elems ], n))

  (* Rebuild a wrapper from recovered run descriptions (newest first,
     the base run last) — the re-entry point of {!Topk_durable.Store}
     after a crash.  [next_seq] must exceed every sequence number baked
     into [runs]; subsequent updates continue the stream from there. *)
  let restore ?params ?(buffer_cap = 1024) ?(fanout = 4) ?pool ?metrics ?sink
      ~runs ~next_seq () =
    make ~entry:"Ingest.restore" ?params ~buffer_cap ~fanout ?pool ?metrics
      ?sink ~seq:next_seq (fun () ->
        if runs = [] then invalid_arg "Ingest.restore: runs must be non-empty";
        if next_seq < 1 then
          invalid_arg
            (Printf.sprintf "Ingest.restore: next_seq must be >= 1 (got %d)"
               next_seq);
        List.iter
          (fun rd ->
            if rd.rd_seq >= next_seq then
              invalid_arg
                (Printf.sprintf
                   "Ingest.restore: run seq %d is not below next_seq %d"
                   rd.rd_seq next_seq))
          runs;
        let rebuild rd =
          let dead = Hashtbl.create (max 1 (Array.length rd.rd_dead)) in
          Array.iter (fun i -> Hashtbl.replace dead i ()) rd.rd_dead;
          mk_run ?params ~level:rd.rd_level ~seq:rd.rd_seq ~dead rd.rd_elems
        in
        let rs = List.map rebuild runs in
        (* Surviving-element count: replay newest-first, ids shadowed by
           a newer run's ids or tombstones are not live. *)
        let killed = Hashtbl.create 64 in
        let live = ref 0 in
        List.iter
          (fun r ->
            Hashtbl.iter
              (fun i () ->
                if not (Hashtbl.mem killed i) then begin
                  incr live;
                  Hashtbl.replace killed i ()
                end)
              r.r_ids;
            Hashtbl.iter (fun i () -> Hashtbl.replace killed i ()) r.r_dead)
          rs;
        (rs, !live))

  (* ---- level manager: merge selection ---- *)

  (* Contiguous same-level blocks of the run list, newest first. *)
  let blocks runs =
    let rec go acc cur = function
      | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
      | r :: rest -> (
          match cur with
          | c :: _ when c.r_level = r.r_level -> go acc (r :: cur) rest
          | [] -> go acc [ r ] rest
          | _ -> go (List.rev cur :: acc) [ r ] rest)
    in
    go [] [] runs

  (* Pick the lowest level holding >= fanout runs and merge its oldest
     [fanout] — classic tiering: small merges first, each output run
     climbing one level. *)
  let merge_candidates t runs =
    let eligible =
      List.filter (fun b -> List.length b >= t.fanout) (blocks runs)
    in
    match eligible with
    | [] -> None
    | b0 :: bs ->
        let best =
          List.fold_left
            (fun a b ->
              if (List.hd b).r_level < (List.hd a).r_level then b else a)
            b0 bs
        in
        let inputs = drop (List.length best - t.fanout) best in
        let oldest_run = List.nth runs (List.length runs - 1) in
        let j_purge =
          List.exists (fun r -> r == oldest_run) inputs
        in
        Some { j_inputs = inputs; j_purge }

  (* Call with [t.mu] held.  Marks the merge in flight and returns the
     job (tagged with the generation that scheduled it) for the caller
     to dispatch outside the lock.  The generation lets the dispatcher
     detect that the merge already ran to completion on a worker before
     the dispatcher got around to recording its future — in that case
     the future must not be recorded (it would be stale, or clobber the
     future of a cascaded follow-up merge). *)
  let maybe_schedule_locked t =
    if t.merging || t.wedged then None
    else
      match merge_candidates t (Epoch.current t.epochs) with
      | None -> None
      | Some job ->
          t.merging <- true;
          t.merge_gen <- t.merge_gen + 1;
          Some (job, t.merge_gen)

  (* If an async merge died permanently (retries exhausted, pool shut
     down), note it and stop scheduling: the pre-merge epoch stays
     current and correct. *)
  let reap_failed_merge_locked t =
    match t.pending with
    | Some fut -> (
        match Future.poll fut with
        | Some r -> (
            t.pending <- None;
            t.merge_gen <- t.merge_gen + 1;
            match r.Response.status with
            | Response.Failed _ ->
                t.merging <- false;
                t.wedged <- true
            | _ -> ())
        | None -> ())
    | None -> ()

  (* ---- merging ---- *)

  (* Fold the input block (newest first) into one run a level up.
     Within the block, newest wins: an element survives unless a
     strictly newer input re-asserted or tombstoned its id.  The output
     must override older (non-input) runs exactly as the inputs jointly
     did, so its tombstones are the union of every input's
     [ids ∪ dead] minus the ids it keeps live — unless the block
     includes the oldest run, where tombstones purge entirely. *)
  let merge_runs t { j_inputs = inputs; j_purge } =
    let killed = Hashtbl.create 64 in
    let over = Hashtbl.create 64 in
    let out = ref [] in
    let scanned = ref 0 in
    List.iter
      (fun r ->
        scanned := !scanned + Array.length r.r_elems + Hashtbl.length r.r_dead;
        Array.iter
          (fun e ->
            let i = P.id e in
            Hashtbl.replace over i ();
            if not (Hashtbl.mem killed i) then out := e :: !out;
            Hashtbl.replace killed i ())
          r.r_elems;
        Hashtbl.iter
          (fun i () ->
            Hashtbl.replace killed i ();
            Hashtbl.replace over i ())
          r.r_dead)
      inputs;
    let elems = Array.of_list !out in
    (* Merge I/O: read every input element and tombstone, write the
       output — charged to the domain running the merge. *)
    Stats.charge_scan !scanned;
    Stats.charge_scan (Array.length elems);
    let dead =
      if j_purge then Hashtbl.create 1
      else begin
        let d = Hashtbl.create (Hashtbl.length over) in
        let live_ids = ids_of elems in
        Hashtbl.iter
          (fun i () -> if not (Hashtbl.mem live_ids i) then Hashtbl.replace d i ())
          over;
        d
      end
    in
    let seq = List.fold_left (fun a r -> max a r.r_seq) 0 inputs in
    mk_run ?params:t.params
      ~level:((List.hd inputs).r_level + 1)
      ~seq ~dead elems

  (* Replace the (physically contiguous) input block with the merged
     run, preserving positions — seals only prepend, so the block's
     place in the list is stable while the merge ran. *)
  let replace_block inputs merged runs =
    let first = List.hd inputs in
    let rec go = function
      | [] -> [ merged ]  (* unreachable: inputs are in [runs] *)
      | r :: rest when r == first -> merged :: drop (List.length inputs - 1) rest
      | r :: rest -> r :: go rest
    in
    go runs

  let rec dispatch t = function
    | None -> ()
    | Some (job, gen) -> (
        match t.pool with
        | None -> run_merge t job
        | Some pool ->
            let fut =
              Executor.submit_task pool ~lane:Topk_service.Lane.Batch
                ~name:(t.name ^ ".merge") (fun () -> run_merge t job)
            in
            (* Record the future only if this merge is still the
               outstanding one: a fast worker may have completed it (and
               cascaded into the next merge) before we got here. *)
            Mutex.protect t.mu (fun () ->
                if t.merge_gen = gen then t.pending <- Some fut))

  and run_merge t job =
    let t0 = Clock.now () in
    let merged =
      Tr.with_span "ingest.merge"
        ~attrs:
          [ ("level", Tr.Int (List.hd job.j_inputs).r_level);
            ("runs", Tr.Int (List.length job.j_inputs));
            ("purge", Tr.Str (if job.j_purge then "yes" else "no")) ]
        (fun () -> merge_runs t job)
    in
    let next =
      Mutex.protect t.mu (fun () ->
          ignore
            (Epoch.publish t.epochs (replace_block job.j_inputs merged) : int);
          t.merging <- false;
          t.merge_gen <- t.merge_gen + 1;  (* retire: block stale recording *)
          t.pending <- None;
          m_counter t (fun m -> m.Metrics.merges);
          (match t.metrics with
          | Some m ->
              Metrics.Histogram.observe m.Metrics.merge_latency_us
                (int_of_float ((Clock.now () -. t0) *. 1e6))
          | None -> ());
          update_lag t;
          emit_locked t Merged;
          maybe_schedule_locked t)
    in
    dispatch t next

  (* ---- sealing ---- *)

  (* Call with [t.mu] held.  Seals the whole log prefix into a level-0
     run and publishes the new epoch; returns a merge job to dispatch
     outside the lock, if one became due. *)
  let seal_locked t =
    let arr, len = Log.view t.log in
    if len = 0 then None
    else begin
      let seq = arr.(len - 1).Log.seq in
      let run =
        with_retries 4 (fun () ->
            Tr.with_span "ingest.seal"
              ~attrs:[ ("entries", Tr.Int len); ("seq", Tr.Int seq) ]
              (fun () ->
                Stats.charge_scan len;
                let latest = Log.replay ~id:P.id arr len in
                let dead = Hashtbl.create 16 in
                for i = 0 to len - 1 do
                  match arr.(i).Log.op with
                  | Log.Delete e -> Hashtbl.replace dead (P.id e) ()
                  | Log.Insert _ -> ()
                done;
                let live =
                  Hashtbl.fold
                    (fun _ v acc ->
                      match v with Some e -> e :: acc | None -> acc)
                    latest []
                in
                let elems = Array.of_list live in
                Stats.charge_scan (Array.length elems);
                mk_run ?params:t.params ~level:0 ~seq ~dead elems))
      in
      Log.reset t.log;
      Hashtbl.reset t.log_state;
      ignore (Epoch.publish t.epochs (fun runs -> run :: runs) : int);
      m_counter t (fun m -> m.Metrics.seals);
      update_lag t;
      emit_locked t Sealed;
      maybe_schedule_locked t
    end

  (* ---- write path ---- *)

  (* Call with [t.mu] held: is this id visible right now? *)
  let is_live_locked t id =
    match Hashtbl.find_opt t.log_state id with
    | Some b -> b
    | None ->
        let rec scan = function
          | [] -> false
          | r :: rest ->
              if Hashtbl.mem r.r_ids id then true
              else if Hashtbl.mem r.r_dead id then false
              else scan rest
        in
        scan (Epoch.current t.epochs)

  let push t e op =
    let job =
      Mutex.protect t.mu (fun () ->
          if t.frozen then
            invalid_arg (t.name ^ ": frozen (no further updates accepted)");
          reap_failed_merge_locked t;
          (* The amortized O(1/B) log append. *)
          Stats.charge_scan 1;
          let job = if Log.is_full t.log then seal_locked t else None in
          let id = P.id e in
          let seq = t.seq in
          t.seq <- seq + 1;
          let entry =
            match op with
            | `Insert -> { Log.seq; op = Log.Insert e }
            | `Delete -> { Log.seq; op = Log.Delete e }
          in
          (* WAL-first: the durable sink sees (and may refuse) the op
             before the in-memory state acknowledges it. *)
          (match t.sink with Some s -> s.s_append entry | None -> ());
          (match op with
          | `Insert ->
              if not (is_live_locked t id) then t.live <- t.live + 1;
              Log.append t.log entry;
              Hashtbl.replace t.log_state id true
          | `Delete ->
              if is_live_locked t id then t.live <- t.live - 1;
              Log.append t.log entry;
              Hashtbl.replace t.log_state id false;
              m_counter t (fun m -> m.Metrics.tombstones));
          m_counter t (fun m -> m.Metrics.updates);
          job)
    in
    dispatch t job

  let insert t e = push t e `Insert

  let delete t e = push t e `Delete

  (* ---- read path ---- *)

  let pin t =
    Mutex.protect t.mu (fun () ->
        let p = Epoch.pin t.epochs in
        let arr, len = Log.view t.log in
        update_lag t;
        { w_pin = p; w_runs = Epoch.value p; w_log = arr; w_log_len = len })

  let unpin w = Epoch.unpin w.w_pin

  let view_epoch w = Epoch.pin_id w.w_pin

  let view_runs w = List.length w.w_runs

  let view_seq w =
    if w.w_log_len > 0 then w.w_log.(w.w_log_len - 1).Log.seq
    else List.fold_left (fun a r -> max a r.r_seq) 0 w.w_runs

  let query_view w q ~k =
    if k <= 0 then []
    else begin
      Stats.mark_query ();
      (* Replay the unsealed log prefix: latest op per id wins, and any
         op in the log overrides every sealed source for that id. *)
      let latest =
        Tr.with_span "ingest.replay"
          ~attrs:[ ("entries", Tr.Int w.w_log_len) ]
          (fun () ->
            Stats.charge_scan w.w_log_len;
            Log.replay ~id:P.id w.w_log w.w_log_len)
      in
      let log_top =
        W.top_k k
          (Hashtbl.fold
             (fun _ v acc ->
               match v with
               | Some e when P.matches q e -> e :: acc
               | _ -> acc)
             latest [])
      in
      let killed = Hashtbl.create 64 in
      Hashtbl.iter (fun i _ -> Hashtbl.replace killed i ()) latest;
      (* Runs newest -> oldest: each answers an exact top-k' staged
         until k visible elements survive the newer sources' overrides
         (or the run is exhausted), then contributes its overrides. *)
      let legs = ref [ log_top ] in
      List.iter
        (fun r ->
          let leg =
            if Array.length r.r_elems = 0 then []
            else begin
              let rec staged k' =
                let ans = T.query r.r_topk q ~k:k' in
                let live =
                  List.filter
                    (fun e -> not (Hashtbl.mem killed (P.id e)))
                    ans
                in
                if List.length live >= k || List.length ans < k' then
                  W.top_k k live
                else staged (2 * k')
              in
              staged k
            end
          in
          legs := leg :: !legs;
          Hashtbl.iter (fun i () -> Hashtbl.replace killed i ()) r.r_ids;
          Hashtbl.iter (fun i () -> Hashtbl.replace killed i ()) r.r_dead)
        w.w_runs;
      (* The one charged k-way gather over every source's certified
         leg. *)
      Gather.merge ~cmp:W.compare ~k !legs
    end

  let query t q ~k =
    if k <= 0 then []
    else begin
      let w = pin t in
      Fun.protect
        ~finally:(fun () -> unpin w)
        (fun () -> query_view w q ~k)
    end

  (* Uncharged diagnostic: the surviving element set of a pinned view,
     computed by a straight replay — the oracle the ingest bench (and
     the conformance law) compares answers against. *)
  let view_live w =
    let latest = Log.replay ~id:P.id w.w_log w.w_log_len in
    let killed = Hashtbl.create 64 in
    Hashtbl.iter (fun i _ -> Hashtbl.replace killed i ()) latest;
    let out =
      ref
        (Hashtbl.fold
           (fun _ v acc -> match v with Some e -> e :: acc | None -> acc)
           latest [])
    in
    List.iter
      (fun r ->
        Array.iter
          (fun e ->
            if not (Hashtbl.mem killed (P.id e)) then out := e :: !out)
          r.r_elems;
        Hashtbl.iter (fun i () -> Hashtbl.replace killed i ()) r.r_ids;
        Hashtbl.iter (fun i () -> Hashtbl.replace killed i ()) r.r_dead)
      w.w_runs;
    !out

  (* ---- freeze ---- *)

  let freeze t =
    let did_freeze = ref false in
    let job =
      Mutex.protect t.mu (fun () ->
          if t.frozen then None
          else begin
            t.frozen <- true;
            did_freeze := true;
            reap_failed_merge_locked t;
            seal_locked t
          end)
    in
    dispatch t job;
    (* Drain the background compaction: await the outstanding merge (a
       permanent failure wedges further scheduling — the current epoch
       stays correct), then cascade until nothing is schedulable. *)
    let rec settle () =
      match Mutex.protect t.mu (fun () -> t.pending) with
      | Some fut ->
          let r = Future.await fut in
          (match r.Response.status with
          | Response.Complete -> ()
          | _ ->
              (* Resolved without running to completion: retries
                 exhausted or the pool shut down. *)
              Mutex.protect t.mu (fun () ->
                  match t.pending with
                  | Some f when f == fut ->
                      t.pending <- None;
                      t.merge_gen <- t.merge_gen + 1;
                      t.merging <- false;
                      t.wedged <- true
                  | _ -> ()));
          settle ()
      | None -> (
          match Mutex.protect t.mu (fun () -> maybe_schedule_locked t) with
          | None -> ()
          | Some _ as job ->
              dispatch t job;
              settle ())
    in
    settle ();
    (* The freeze that sealed the tail also checkpoints the settled
       state, exactly once (re-freezing is a no-op). *)
    if !did_freeze then Mutex.protect t.mu (fun () -> emit_locked t Frozen)

  (* ---- introspection / integration ---- *)

  let size t = Mutex.protect t.mu (fun () -> t.live)

  let space_words t =
    Mutex.protect t.mu (fun () ->
        List.fold_left
          (fun acc r -> acc + T.space_words r.r_topk)
          (Log.cap t.log)
          (Epoch.current t.epochs))

  let epoch t = Epoch.current_id t.epochs

  let epoch_lag t = Epoch.lag t.epochs

  let levels t =
    List.map (fun b -> ((List.hd b).r_level, List.length b))
      (blocks (Epoch.current t.epochs))

  let run_count t = List.length (Epoch.current t.epochs)

  let log_length t = Mutex.protect t.mu (fun () -> Log.length t.log)

  let frozen t = Mutex.protect t.mu (fun () -> t.frozen)

  let wedged t = Mutex.protect t.mu (fun () -> t.wedged)

  let last_seq t = Mutex.protect t.mu (fun () -> t.seq - 1)

  let with_durable_state t f =
    Mutex.protect t.mu (fun () ->
        f ~runs:(run_datas_locked t) ~log:(log_entries_locked t))

  let update_ops t =
    {
      Registry.u_insert = (fun e -> insert t e);
      u_delete = (fun e -> delete t e);
      u_freeze = (fun () -> freeze t);
    }

  (* The wrapper is itself a TOPK, so it can be registered, scattered
     over, swept by the conformance suite, and re-wrapped. *)
  module Topk = struct
    module P = P

    type nonrec t = t

    let name = "ingest(" ^ T.name ^ ")"

    let build ?params elems = create ?params elems

    let size = size

    let space_words = space_words

    let query = query
  end

  let register registry ~name t =
    Registry.register ~update:(update_ops t) registry ~name (module Topk) t
end
