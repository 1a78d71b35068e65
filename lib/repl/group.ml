module M = Topk_service.Metrics
module Clock = Topk_util.Clock
module Response = Topk_service.Response
module Consistency = Topk_service.Consistency
module Stats = Topk_em.Stats
module Tr = Topk_trace.Trace

module Make (T : Topk_core.Sigs.TOPK) = struct
  module R = Replica.Make (T)
  module I = R.I

  type node = { n : R.t; mutable alive : bool }

  type t = {
    name : string;
    tr : Transport.t;
    nodes : node array;  (* index = node id; id 0 starts as primary *)
    mutable primary : int;
    mutable term : int;
    mutable ship : I.P.elem Log_ship.t;
    window : int;
    quorum : int;    (* replica acks a synced write waits for *)
    max_pump : int;  (* write-path tick budget before giving up *)
    metrics : M.t option;
    router : Router.t;
    mutable dropped_seen : int;  (* transport drops already exported *)
  }

  let mc t f = match t.metrics with Some m -> M.Counter.incr (f m) | None -> ()

  let create ?params ?buffer_cap ?fanout ?retain ?(window = 8) ?plan ?metrics
      ?quorum ?(max_pump = 200) ~name ~replicas base =
    if replicas < 1 then invalid_arg "Group.create: replicas >= 1";
    if max_pump < 1 then invalid_arg "Group.create: max_pump >= 1";
    let quorum =
      (* Default: a group majority counting the primary itself —
         [(replicas+1)/2] replica acks. *)
      match quorum with Some q -> q | None -> (replicas + 1) / 2
    in
    if quorum < 0 || quorum > replicas then
      invalid_arg "Group.create: quorum in [0, replicas]";
    let tr = Transport.create ?plan ~nodes:(replicas + 1) () in
    let nodes =
      Array.init (replicas + 1) (fun i ->
          { n = R.create ?params ?buffer_cap ?fanout ?retain ~id:i base;
            alive = true })
    in
    let ship = Log_ship.attach ~window (R.outlog nodes.(0).n) in
    for i = 1 to replicas do
      Log_ship.add_peer ship ~now:0 i
    done;
    {
      name;
      tr;
      nodes;
      primary = 0;
      term = 0;
      ship;
      window;
      quorum;
      max_pump;
      metrics;
      router = Router.create ();
      dropped_seen = 0;
    }

  let name t = t.name
  let transport t = t.tr
  let primary t = t.primary
  let term t = t.term
  let nodes t = Array.length t.nodes
  let node t i = t.nodes.(i).n
  let alive t i = t.nodes.(i).alive
  let head t = R.applied t.nodes.(t.primary).n
  let applied t i = R.applied t.nodes.(i).n
  let quorum t = t.quorum

  let lag t =
    Array.fold_left
      (fun (worst, i) nd ->
        let worst =
          if nd.alive && i <> t.primary then
            max worst (head t - R.applied nd.n)
          else worst
        in
        (worst, i + 1))
      (0, 0) t.nodes
    |> fst

  let export t =
    (match t.metrics with
    | Some m ->
        M.Gauge.set m.M.replica_lag (lag t);
        let d = Transport.total_dropped t.tr in
        M.Counter.add m.M.repl_frames_dropped (d - t.dropped_seen);
        t.dropped_seen <- d
    | None -> ())

  let send_install t ~peer =
    Tr.with_root "repl.install"
      ~attrs:[ ("peer", Tr.Int peer); ("term", Tr.Int t.term) ]
      (fun () ->
        let snap, tail, upto = R.install_image t.nodes.(t.primary).n in
        Transport.send t.tr ~src:t.primary ~dst:peer
          (Wire.encode (Wire.Install { term = t.term; snap; tail }));
        Log_ship.mark_installing t.ship ~peer ~upto ~now:(Transport.now t.tr))
    |> fst

  let ship_tick t =
    Log_ship.tick t.ship ~now:(Transport.now t.tr)
      ~ship:(fun ~peer e ->
        mc t (fun m -> m.M.repl_frames_shipped);
        Transport.send t.tr ~src:t.primary ~dst:peer
          (Wire.encode (Wire.Ship { term = t.term; entry = e })))
      ~install:(fun ~peer -> send_install t ~peer)

  let deliver t =
    Array.iteri
      (fun i nd ->
        let inbox = Transport.recv t.tr ~dst:i in
        if nd.alive then
          List.iter
            (fun (src, bytes) ->
              match Wire.decode bytes with
              | Error `Corrupt -> ()  (* dropped; rto recovers *)
              | Ok m ->
                  if i = t.primary then (
                    match m with
                    | Wire.Ack { term; upto } when term = t.term ->
                        if
                          Log_ship.handle_ack t.ship ~peer:src ~upto
                            ~now:(Transport.now t.tr)
                        then mc t (fun mm -> mm.M.repl_frames_acked)
                    | _ -> ()  (* stale-term acks, stray ships *))
                  else begin
                    let installs0 = R.installs nd.n in
                    (match R.handle nd.n m with
                    | Some upto ->
                        Transport.send t.tr ~src:i ~dst:src
                          (Wire.encode
                             (Wire.Ack { term = R.term nd.n; upto }))
                    | None -> ());
                    if R.installs nd.n > installs0 then
                      mc t (fun mm -> mm.M.snapshot_installs)
                  end)
            inbox)
      t.nodes

  (* One scheduling quantum: the shipper transmits, the fabric
     advances one tick, every node drains its inbox (replies go out on
     the next tick), and the gauges/counters are exported. *)
  let step t =
    ship_tick t;
    Transport.tick t.tr;
    deliver t;
    export t

  let pump t n =
    for _ = 1 to n do
      step t
    done

  (* Pump until every live replica has applied the primary's head (and
     nothing is left in flight), within a tick budget. *)
  let settle ?(max_ticks = 2000) t =
    let caught_up () =
      let h = head t in
      Array.for_all (fun nd -> not nd.alive || R.applied nd.n >= h) t.nodes
    in
    let i = ref 0 in
    while ((not (caught_up ())) || not (Transport.idle t.tr)) && !i < max_ticks
    do
      incr i;
      step t
    done;
    caught_up ()

  type write_outcome = Synced of int | Lagged of int

  let write_seq = function Synced s | Lagged s -> s

  let synced = function Synced _ -> true | Lagged _ -> false

  let write t f =
    let nd = t.nodes.(t.primary) in
    f (R.index nd.n);  (* the sink feeds the outlog the shipper reads *)
    let s = R.applied nd.n in
    let rec go i =
      if Log_ship.acks_covering t.ship s >= t.quorum then Synced s
      else if i >= t.max_pump then Lagged s
      else begin
        step t;
        go (i + 1)
      end
    in
    go 0

  let insert t e = write t (fun idx -> I.insert idx e)
  let delete t e = write t (fun idx -> I.delete idx e)

  let read ?(consistency = Consistency.Any) t q ~k =
    Consistency.validate consistency;
    let t0 = Clock.now () in
    let cands =
      Array.to_list
        (Array.mapi
           (fun i nd ->
             {
               Router.c_id = i;
               c_applied = R.applied nd.n;
               c_alive = nd.alive;
               c_primary = i = t.primary;
             })
           t.nodes)
    in
    match Router.select t.router ~head:(head t) ~consistency cands with
    | None -> None
    | Some id ->
        let (answers, token, cost), _trace =
          Tr.with_root "repl.read"
            ~attrs:[ ("node", Tr.Int id); ("k", Tr.Int k) ]
            (fun () ->
              let before = Stats.snapshot () in
              let answers, token = R.read t.nodes.(id).n q ~k in
              (answers, token, Stats.diff (Stats.snapshot ()) before))
        in
        Some
          {
            Response.answers;
            status = Response.Complete;
            summary =
              { Response.zero_summary with cost; rounds = 1; attempts = 1 };
            trace_id = None;
            latency = Clock.now () -. t0;
            worker = id;
            instance = t.name;
            k;
            seq_token = Some token;
          }

  (* Deterministic failover: the (simulated) death of the primary is a
     latched full partition; promotion picks the live replica with the
     highest applied prefix (lowest id on ties), bumps the term — the
     fence that rejects the deposed primary's stragglers — and attaches
     a fresh shipper to the promoted node's outlog.  The survivors
     resync by the normal protocol: their first cumulative ack snaps
     the new shipper's cursors to what they hold, and anyone behind
     the promoted outlog's floor gets a snapshot install.  Any
     Sync-acked write reached [quorum >= 1] replicas, and promotion
     maximizes the applied prefix, so no such write is lost. *)
  let fail_primary t =
    let old = t.primary in
    Tr.with_root "repl.promote" ~attrs:[ ("old", Tr.Int old) ] (fun () ->
        Transport.isolate t.tr old;
        t.nodes.(old).alive <- false;
        let best = ref None in
        Array.iteri
          (fun i nd ->
            if nd.alive then
              match !best with
              | Some (_, a) when a >= R.applied nd.n -> ()
              | _ -> best := Some (i, R.applied nd.n))
          t.nodes;
        match !best with
        | None -> invalid_arg "Group.fail_primary: no live replica left"
        | Some (p, _) ->
            t.term <- t.term + 1;
            R.promote t.nodes.(p).n ~term:t.term;
            t.primary <- p;
            t.ship <-
              Log_ship.attach ~window:t.window (R.outlog t.nodes.(p).n);
            Array.iteri
              (fun i nd ->
                if nd.alive && i <> p then
                  Log_ship.add_peer t.ship ~now:(Transport.now t.tr) i)
              t.nodes;
            mc t (fun m -> m.M.failovers);
            Tr.add_attr "new" (Tr.Int p);
            p)
    |> fst

  let partition t i = Transport.isolate t.tr i

  let rejoin t i = Transport.rejoin t.tr i
end
