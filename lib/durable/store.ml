(* Durable ingestion store — see store.mli. *)

module Metrics = Topk_service.Metrics
module Clock = Topk_util.Clock
module Executor = Topk_service.Executor
module Lane = Topk_service.Lane
module Ing = Topk_ingest.Ingest
module Log = Topk_ingest.Update_log

type mode = Volatile | Async of int | Sync

let pp_mode ppf = function
  | Volatile -> Format.pp_print_string ppf "volatile"
  | Sync -> Format.pp_print_string ppf "sync"
  | Async n -> Format.fprintf ppf "async:%d" n

let mode_of_string s =
  match String.lowercase_ascii s with
  | "volatile" -> Some Volatile
  | "sync" -> Some Sync
  | s when String.length s > 6 && String.sub s 0 6 = "async:" -> (
      match int_of_string_opt (String.sub s 6 (String.length s - 6)) with
      | Some n when n >= 1 -> Some (Async n)
      | _ -> None)
  | _ -> None

module Make (T : Topk_core.Sigs.TOPK) = struct
  module I = Topk_ingest.Ingest.Make (T)

  type t = {
    dir : string;
    mode : mode;
    checkpoint_every : int;
    metrics : Metrics.t option;
    pool : Executor.t option;  (* offloads GC sweeps to Maintenance *)
    mutable gen : int;
    mutable wal : I.P.elem Wal.t option;
    mutable seals : int;  (* seals since the last checkpoint *)
    mutable replaying : bool;
    mutable idx : I.t option;
    mutable recovered_seq : int;
    mutable closed : bool;
  }

  let count metrics f =
    match metrics with Some m -> Metrics.Counter.incr (f m) | None -> ()

  let the_index t =
    match t.idx with Some i -> i | None -> assert false

  let flush_wal t w =
    if Wal.unflushed w > 0 then begin
      Wal.flush w;
      count t.metrics (fun m -> m.Metrics.wal_fsyncs)
    end

  (* Snapshot/manifest writes self-verify by read-back; an injected
     bit flip fails the gate, counts, and is retried — the previous
     generation stays the root the whole time. *)
  let retrying label t f =
    let rec go k =
      if not (f ()) then begin
        count t.metrics (fun m -> m.Metrics.checksum_failures);
        if k <= 1 then
          failwith ("Durable.Store: " ^ label ^ " failed verification repeatedly")
        else go (k - 1)
      end
    in
    go 3

  (* Sweep every stale generation strictly below [keep] — the one
     just superseded on the happy path, plus anything an earlier crash
     stranded between a manifest publish and its GC (which would
     otherwise leak forever, and linger as a silent stale fallback
     root).  Manifests go first so a half-swept generation can never
     be picked as a root whose snapshot is already gone. *)
  let sweep_below t ~keep =
    let stale prefix suffix name =
      let pl = String.length prefix and sl = String.length suffix in
      let nl = String.length name in
      nl > pl + sl
      && String.sub name 0 pl = prefix
      && String.sub name (nl - sl) sl = suffix
      &&
      match int_of_string_opt (String.sub name pl (nl - pl - sl)) with
      | Some g -> g >= 1 && g < keep
      | None -> false
    in
    let files = Disk.readdir t.dir in
    List.iter
      (fun (prefix, suffix) ->
        List.iter
          (fun name ->
            if stale prefix suffix name then
              Disk.remove (Filename.concat t.dir name))
          files)
      [ ("manifest-", ""); ("manifest-", ".tmp");
        ("snap-", ".dat"); ("snap-", ".dat.tmp");
        ("wal-", ".log") ]

  (* Every call happens under the ingest wrapper's mutex — sink events
     fire with it held, and the manual/create/recover paths go through
     [I.with_durable_state] — so checkpoints are serialized against
     each other {e and} against writers: no append can slip into the
     old WAL segment between the captured cut and the rotation. *)
  let do_checkpoint t ~runs ~log =
    if t.mode <> Volatile then begin
      let g' = t.gen + 1 in
      let snap_seq =
        List.fold_left (fun a (r : _ Ing.run_data) -> max a r.Ing.rd_seq) 0 runs
      in
      retrying "snapshot" t (fun () ->
          Snapshot.write ~dir:t.dir ~gen:g' ~seq:snap_seq ~runs);
      (* Rotate the WAL: the new segment re-carries the unsealed
         suffix, making generation g' self-contained before the
         old root goes away. *)
      (match t.wal with
      | Some w ->
          flush_wal t w;
          Wal.close w
      | None -> ());
      let w' = Wal.create ~dir:t.dir ~gen:g' in
      List.iter
        (fun e ->
          Wal.append w' e;
          count t.metrics (fun m -> m.Metrics.wal_appends))
        log;
      if log <> [] then begin
        Wal.flush w';
        count t.metrics (fun m -> m.Metrics.wal_fsyncs)
      end;
      Disk.set_phase "manifest";
      retrying "manifest" t (fun () -> Manifest.publish ~dir:t.dir ~gen:g');
      t.wal <- Some w';
      t.gen <- g';
      t.seals <- 0;
      count t.metrics (fun m -> m.Metrics.checkpoints);
      (* Generation g' is durably the root; everything below is
         garbage.  With a pool the sweep is housekeeping on the
         [Maintenance] lane instead of synchronous work inside the
         checkpoint's critical section — safe to defer because the new
         root is already published, the predicate only ever matches
         generations below it (files of g' and later are untouchable
         however late the task runs), and [Disk.remove] shrugs off a
         path a newer sweep already claimed.  If the pool refuses the
         task (shutdown, open breaker), sweep inline as before. *)
      (match t.pool with
      | Some pool -> (
          match
            Executor.submit_task pool ~lane:Lane.Maintenance
              ~name:"store.gc" (fun () -> sweep_below t ~keep:g')
          with
          | (_ : unit Topk_service.Response.t Topk_service.Future.t) -> ()
          | exception Topk_service.Error.Error _ -> sweep_below t ~keep:g')
      | None -> sweep_below t ~keep:g')
    end

  (* Sink calls arrive under the ingest wrapper's mutex, already
     serialized; [replaying] mutes them while recovery replays the WAL
     through the ordinary insert/delete path. *)
  let mk_sink t : I.P.elem Ing.sink =
    {
      Ing.s_append =
        (fun e ->
          if not t.replaying then
            match t.wal with
            | None -> failwith "Durable.Store: WAL not open"
            | Some w -> (
                Disk.set_phase "wal-append";
                Wal.append w e;
                count t.metrics (fun m -> m.Metrics.wal_appends);
                match t.mode with
                | Sync -> flush_wal t w
                | Async n -> if Wal.unflushed w >= n then flush_wal t w
                | Volatile -> ()));
      s_event =
        (fun ev ~runs ~log ->
          if not t.replaying then begin
            (match ev with
            | Ing.Sealed -> Disk.set_phase "seal"
            | Ing.Merged -> Disk.set_phase "merge"
            | Ing.Frozen -> Disk.set_phase "freeze");
            (match t.wal with Some w -> flush_wal t w | None -> ());
            match ev with
            | Ing.Merged | Ing.Frozen -> do_checkpoint t ~runs ~log
            | Ing.Sealed ->
                t.seals <- t.seals + 1;
                if t.seals >= t.checkpoint_every then do_checkpoint t ~runs ~log
          end);
    }

  let mk_state ~dir ~mode ~checkpoint_every ~metrics ~pool =
    (match mode with
    | Async n when n < 1 ->
        invalid_arg
          (Printf.sprintf "Durable.Store: Async group size must be >= 1 (got %d)" n)
    | _ -> ());
    if checkpoint_every < 1 then
      invalid_arg
        (Printf.sprintf "Durable.Store: checkpoint_every must be >= 1 (got %d)"
           checkpoint_every);
    {
      dir;
      mode;
      checkpoint_every;
      metrics;
      pool;
      gen = 0;
      wal = None;
      seals = 0;
      replaying = false;
      idx = None;
      recovered_seq = 0;
      closed = false;
    }

  let create ?params ?buffer_cap ?fanout ?pool ?metrics ?(mode = Sync)
      ?(checkpoint_every = 4) ~dir elems =
    let metrics = Executor.resolve_metrics ?metrics pool in
    let t = mk_state ~dir ~mode ~checkpoint_every ~metrics ~pool in
    Disk.mkdir_p dir;
    let sink = if mode = Volatile then None else Some (mk_sink t) in
    let idx = I.create ?params ?buffer_cap ?fanout ?pool ?metrics ?sink elems in
    t.idx <- Some idx;
    (* Publish generation 1 before accepting a single update: from
       here on some valid recovery root always exists. *)
    if mode <> Volatile then begin
      Disk.set_phase "seal";
      I.with_durable_state idx (fun ~runs ~log -> do_checkpoint t ~runs ~log)
    end;
    t

  let recover ?params ?buffer_cap ?fanout ?pool ?metrics ?(mode = Sync)
      ?(checkpoint_every = 4) ~dir () =
    let t0 = Clock.now () in
    let metrics = Executor.resolve_metrics ?metrics pool in
    let count_m f = count metrics f in
    (* Newest valid root wins; invalid roots (a checkpoint died before
       its snapshot, bit rot on the manifest, …) count and fall back. *)
    let rec root = function
      | [] -> None
      | g :: rest -> (
          match Manifest.read (Manifest.path ~dir ~gen:g) with
          | None ->
              count_m (fun m -> m.Metrics.checksum_failures);
              root rest
          | Some _ -> (
              match Snapshot.read (Snapshot.path ~dir ~gen:g) with
              | Error _ ->
                  count_m (fun m -> m.Metrics.checksum_failures);
                  root rest
              | Ok { Snapshot.seq = snap_seq; runs } ->
                  let entries, status = Wal.load ~dir ~gen:g in
                  (match status with
                  | `Torn -> count_m (fun m -> m.Metrics.torn_tails)
                  | `Corrupt -> count_m (fun m -> m.Metrics.checksum_failures)
                  | `Clean -> ());
                  Some (g, snap_seq, runs, entries)))
    in
    match root (Manifest.gens ~dir) with
    | None -> None
    | Some (g, snap_seq, runs, entries) ->
        let t = mk_state ~dir ~mode ~checkpoint_every ~metrics ~pool in
        t.gen <- g;
        t.replaying <- true;
        let sink = if mode = Volatile then None else Some (mk_sink t) in
        let idx =
          I.restore ?params ?buffer_cap ?fanout ?pool ?metrics ?sink ~runs
            ~next_seq:(snap_seq + 1) ()
        in
        t.idx <- Some idx;
        List.iter
          (fun (e : I.P.elem Log.entry) ->
            if e.Log.seq > snap_seq then
              match e.Log.op with
              | Log.Insert x -> I.insert idx x
              | Log.Delete x -> I.delete idx x)
          entries;
        t.recovered_seq <- I.last_seq idx;
        t.replaying <- false;
        (* Re-root under a fresh generation: the replayed suffix is
           folded into the new snapshot/WAL and never replayed again. *)
        if mode <> Volatile then
          I.with_durable_state idx (fun ~runs ~log -> do_checkpoint t ~runs ~log);
        count_m (fun m -> m.Metrics.recoveries);
        (match metrics with
        | Some m ->
            Metrics.Histogram.observe m.Metrics.recovery_time_us
              (int_of_float ((Clock.now () -. t0) *. 1e6))
        | None -> ());
        Some t

  let index = the_index
  let insert t x = I.insert (the_index t) x
  let delete t x = I.delete (the_index t) x
  let query t q ~k = I.query (the_index t) q ~k

  (* The whole checkpoint — capture {e and} commit — runs inside the
     ingest wrapper's critical section, so a concurrent writer can
     neither append to the WAL segment being retired nor observe its
     Sync-acked record deleted with the old generation. *)
  let checkpoint t =
    if t.mode <> Volatile then
      I.with_durable_state (the_index t) (fun ~runs ~log ->
          do_checkpoint t ~runs ~log)

  let close t =
    if not t.closed then begin
      t.closed <- true;
      I.freeze (the_index t);
      match t.wal with Some w -> Wal.close w | None -> ()
    end

  let mode t = t.mode
  let generation t = t.gen
  let recovered_seq t = t.recovered_seq
end
