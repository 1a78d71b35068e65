(* The serving benchmark: four seeded closed-loop workloads driven
   through the public API, an oracle check of the answers, and a
   traced per-layer breakdown.  README.md in this directory describes
   the workloads and every metric.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--ops N]

   With [--trace 0] the last stdout line reports the end-to-end
   metrics; with [--trace 1] it reports the per-layer metrics.  With
   [--ops N] every phase runs exactly N operations instead of S
   seconds and the pool is drained after each one, so every counter
   printed on the [counts:] line repeats exactly for a seed. *)

open Measure
module Svc = Topk_service
module Client = Svc.Client
module Executor = Svc.Executor
module Metrics = Svc.Metrics
module Response = Svc.Response
module Consistency = Svc.Consistency
module Stats = Topk_em.Stats
module Gen = Topk_util.Gen
module Select = Topk_util.Select
module Cache = Topk_cache.Cache
module Version = Topk_cache.Version
module I = Topk_interval.Interval
module T2 = Topk_interval.Instances.Topk_t2
module SSet = Topk_shard.Shard_set.Make (T2) (Topk_interval.Slab_max)
module Scatter = Topk_shard.Scatter.Make (SSet) (T2)
module Gather = Topk_shard.Gather
module DStore = Topk_durable.Store.Make (T2)
module Wal = Topk_durable.Wal
module Group = Topk_repl.Group.Make (T2)
module Wire = Topk_repl.Wire
module Log = Topk_ingest.Update_log

let params = Topk_interval.Instances.params ()

(* ---------- scratch files, kept under the working directory ---------- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

let tmp_root =
  lazy
    (let top = ".perfbench-tmp" in
     let d = Filename.concat top (string_of_int (Unix.getpid ())) in
     (try Unix.mkdir top 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
     rm_rf d;
     Unix.mkdir d 0o755;
     at_exit (fun () ->
         rm_rf d;
         try Unix.rmdir top with Unix.Unix_error _ -> ());
     d)

let fresh_dir name =
  let d = Filename.concat (Lazy.force tmp_root) name in
  rm_rf d;
  Unix.mkdir d 0o755;
  d

let disk_bytes dir =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)

(* ---------- inputs ---------- *)

let elements rng n = I.of_spans rng (Gen.intervals rng ~shape:Gen.Mixed_intervals ~n)

(* Zipf over ranks [0, distinct): P(r) proportional to 1/(r+1)^theta. *)
let zipf_sampler ~theta ~distinct =
  let cum = Array.make distinct 0. in
  let acc = ref 0. in
  for r = 0 to distinct - 1 do
    acc := !acc +. (1. /. Float.pow (float_of_int (r + 1)) theta);
    cum.(r) <- !acc
  done;
  fun rng ->
    let u = Rng.uniform rng *. cum.(distinct - 1) in
    let lo = ref 0 and hi = ref (distinct - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cum.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

let ids answers = List.map (fun (e : I.t) -> e.I.id) answers

(* The from-scratch oracle: filter, then select the k heaviest. *)
let oracle_ids fold q ~k =
  fold (fun acc (e : I.t) -> if I.contains e q then e :: acc else acc) []
  |> Select.top_k ~cmp:I.compare_weight k
  |> ids

(* The seeded update stream of the writing workloads: 70% inserts of
   fresh ids, 30% deletes of live elements (base ones included).  A
   fresh insert takes the next span of a Mixed_intervals pool and a
   weight whose fractional part lies in [0.25, 0.5) and encodes the
   insert's ordinal, so it is distinct from every base weight (whose
   jitter lies in [0, 0.25)) and from every other insert. *)
module Writer = struct
  type t = {
    rng : Rng.t;
    spans : (float * float) array;
    n_base : int;
    mutable live : I.t array;
    mutable n_live : int;
    pos : (int, int) Hashtbl.t;
    mutable next_id : int;
    mutable inserts : int;
    mutable history : (bool * I.t) list;  (* newest first; seq = position *)
    mutable seq : int;
  }

  let create ~seed base =
    let rng = Rng.create seed in
    let n = Array.length base in
    let pos = Hashtbl.create (2 * n) in
    Array.iteri (fun i (e : I.t) -> Hashtbl.replace pos e.I.id i) base;
    {
      rng;
      spans = Gen.intervals rng ~shape:Gen.Mixed_intervals ~n;
      n_base = n;
      live = Array.copy base;
      n_live = n;
      pos;
      next_id = n + 1;
      inserts = 0;
      history = [];
      seq = 0;
    }

  let add w (e : I.t) =
    if w.n_live = Array.length w.live then begin
      let a = Array.make (2 * w.n_live) e in
      Array.blit w.live 0 a 0 w.n_live;
      w.live <- a
    end;
    w.live.(w.n_live) <- e;
    Hashtbl.replace w.pos e.I.id w.n_live;
    w.n_live <- w.n_live + 1

  let remove_at w i =
    let e = w.live.(i) and last = w.live.(w.n_live - 1) in
    w.live.(i) <- last;
    Hashtbl.replace w.pos last.I.id i;
    Hashtbl.remove w.pos e.I.id;
    w.n_live <- w.n_live - 1

  (* Draw the next write and apply it to the model live set. *)
  let next w =
    let op =
      if w.n_live = 0 || Rng.uniform w.rng < 0.7 then begin
        let j = w.inserts in
        w.inserts <- j + 1;
        let lo, hi = w.spans.(j mod Array.length w.spans) in
        let weight =
          float_of_int (1 + Rng.int w.rng w.n_base)
          +. 0.25
          +. (0.25 *. float_of_int j /. 16777216.)
        in
        let e = I.make ~id:w.next_id ~lo ~hi ~weight () in
        w.next_id <- w.next_id + 1;
        add w e;
        (true, e)
      end
      else begin
        let i = Rng.int w.rng w.n_live in
        let e = w.live.(i) in
        remove_at w i;
        (false, e)
      end
    in
    w.history <- op :: w.history;
    w.seq <- w.seq + 1;
    op

  let live w = Array.sub w.live 0 w.n_live

  (* The newest [n] writes as WAL entries, oldest first. *)
  let recent_entries w n =
    let rec take i acc = function
      | (ins, e) :: rest when i < n ->
          let op = if ins then Log.Insert e else Log.Delete e in
          take (i + 1) ({ Log.seq = w.seq - i; op } :: acc) rest
      | _ -> acc
    in
    Array.of_list (take 0 [] w.history)

  (* Check each sampled read [(seq, floor, q, k, answer ids)] against
     the oracle over the base set plus writes [1..seq], and against
     its consistency floor; returns the number of mismatches. *)
  let check w ~base samples =
    let samples = List.sort (fun (a, _, _, _, _) (b, _, _, _, _) -> compare a b) samples in
    let ops = Array.of_list (List.rev w.history) in
    let tbl = Hashtbl.create (2 * Array.length base) in
    Array.iter (fun (e : I.t) -> Hashtbl.replace tbl e.I.id e) base;
    let applied = ref 0 in
    List.fold_left
      (fun bad (seq, floor, q, k, got) ->
        while !applied < seq do
          let ins, (e : I.t) = ops.(!applied) in
          if ins then Hashtbl.replace tbl e.I.id e else Hashtbl.remove tbl e.I.id;
          incr applied
        done;
        let want = oracle_ids (fun f init -> Hashtbl.fold (fun _ e a -> f a e) tbl init) q ~k in
        if got <> want || seq < floor || seq > Array.length ops then bad + 1 else bad)
      0 samples
end

(* ---------- per-phase recording ---------- *)

type recorder = {
  reads : Vec.t;  (* µs per completed read *)
  writes : Vec.t;  (* µs per acknowledged write *)
  hit_us : Vec.t;  (* reads answered from the cache (worker = -1) *)
  miss_us : Vec.t;
  read_any_us : Vec.t;
  read_ryw_us : Vec.t;
  write_plain_us : Vec.t;
  write_seal_us : Vec.t;  (* writes during which the seal count advanced *)
  runs : Vec.t;  (* ingest runs sampled at each read *)
  log_len : Vec.t;  (* ingest log length sampled at each read *)
  mutable read_ios : int;
  mutable attempted : int;
  mutable failed : int;
  mutable legs : int;
  mutable pruned : int;
  mutable synced : int;
  mutable lag_max : int;
}

let recorder () =
  {
    reads = Vec.create ();
    writes = Vec.create ();
    hit_us = Vec.create ();
    miss_us = Vec.create ();
    read_any_us = Vec.create ();
    read_ryw_us = Vec.create ();
    write_plain_us = Vec.create ();
    write_seal_us = Vec.create ();
    runs = Vec.create ();
    log_len = Vec.create ();
    read_ios = 0;
    attempted = 0;
    failed = 0;
    legs = 0;
    pruned = 0;
    synced = 0;
    lag_max = 0;
  }

(* Time one read.  A refusal ([None]), a non-[Complete] status or an
   exception counts as failed and is left out of the latency sample.
   Reads through [Client] are also split into cache hits
   ([worker = -1]) and misses. *)
let timed_read ?(client = true) r f =
  r.attempted <- r.attempted + 1;
  let t0 = now_us () in
  let resp = try f () with _ -> None in
  let dt = now_us () -. t0 in
  match resp with
  | Some (resp : I.t Response.t) when resp.Response.status = Response.Complete ->
      Vec.push r.reads dt;
      if client then Vec.push (if resp.Response.worker = -1 then r.hit_us else r.miss_us) dt;
      r.read_ios <- r.read_ios + (Response.cost resp).Stats.ios;
      Some (resp, dt)
  | _ ->
      r.failed <- r.failed + 1;
      None

(* Time one write; the caller classifies the time. *)
let timed_write r f =
  r.attempted <- r.attempted + 1;
  let t0 = now_us () in
  let v = f () in
  let dt = now_us () -. t0 in
  Vec.push r.writes dt;
  (v, dt)

(* ---------- workloads ---------- *)

(* What the driver needs from one set-up workload. *)
type session = {
  step : recorder -> unit;  (* issue the stream's next operation *)
  settle : unit -> unit;  (* wait until background work is done *)
  teardown : unit -> unit;
  check : unit -> int * int;  (* (answers checked, mismatches) *)
  metrics : Metrics.t;  (* the registry the layers report into *)
  cache_stats : unit -> Cache.stats option;
  replays : unit -> (string * float) list;  (* per-layer replays *)
}

type workload = {
  name : string;
  warmup_ops : int;  (* operations the untimed warm-up runs at least *)
  prepare : int -> unit -> session;
      (* [prepare seed] makes the inputs (untimed) and returns the
         set-up, which the driver times *)
}

(* A ring of the most recent query points, the replays' inputs. *)
let capture () =
  let ring = Array.make 256 nan and n = ref 0 in
  let push q =
    ring.(!n mod 256) <- q;
    incr n
  in
  let get () = Array.sub ring 0 (min !n 256) in
  (push, get)

(* Mean µs per call of [f] over [inputs], repeated for at least 50 ms. *)
let replay_us inputs f =
  let n = Array.length inputs in
  if n = 0 then 0.
  else begin
    let calls = ref 0 and t0 = now_us () in
    while now_us () -. t0 < 50_000. do
      Array.iter (fun x -> ignore (Sys.opaque_identity (f x))) inputs;
      calls := !calls + n
    done;
    (now_us () -. t0) /. float_of_int !calls
  end

(* Theorem 2 replayed on [(structure, point)] pairs: time and charged
   I/O per query. *)
let t2_replays ~k pairs =
  let ios =
    Array.fold_left
      (fun acc (t2, q) -> acc + (snd (Stats.measure (fun () -> T2.query t2 q ~k))).Stats.ios)
      0 pairs
  in
  [ ("t2.query_us", replay_us pairs (fun (t2, q) -> T2.query t2 q ~k));
    ("t2.ios", float_of_int ios /. float_of_int (max 1 (Array.length pairs))) ]

(* Cache.find over the cache keys of the captured points, each one
   admitted first, so every lookup is a hit. *)
let cache_replay ~k qs =
  let cache = Cache.create () in
  let keys = Array.map (fun q -> Marshal.to_string q []) qs in
  Array.iter
    (fun qkey ->
      ignore
        (Cache.admit cache ~instance:"replay" ~qkey ~version:Version.static ~k ~len:k ~cost:1
           ~now:0. ()))
    keys;
  [ ( "cache.find_ns",
      1e3
      *. replay_us keys (fun qkey ->
             Cache.find cache ~instance:"replay" ~qkey ~current:Version.static ~k ~now:0. ()) ) ]

(* Replays of the write path: WAL appends into a scratch segment and
   a Ship frame's encode + decode, over the newest writes. *)
let write_replays w =
  let entries = Writer.recent_entries w 256 in
  let dir = fresh_dir "wal-replay" in
  let wal = Wal.create ~dir ~gen:1 in
  let append_us = replay_us entries (Wal.append wal) in
  Wal.close wal;
  rm_rf dir;
  let codec e =
    match Wire.decode (Wire.encode (Wire.Ship { term = 0; entry = e })) with
    | Ok (_ : I.t Wire.t) -> ()
    | Error `Corrupt -> failwith "wire replay: frame did not decode"
  in
  [ ("wal.append_us", append_us); ("wire.codec_us", replay_us entries codec) ]

(* The replays of the writing workloads, whose index is internal to
   the store or group: Theorem 2 over a structure built from the live
   set, the cache, and the write path. *)
let live_replays w ~k qs =
  let t2 = T2.build ~params (Writer.live w) in
  t2_replays ~k (Array.map (fun q -> (t2, q)) qs) @ cache_replay ~k qs @ write_replays w

let check_static elems samples =
  let bad =
    List.fold_left
      (fun bad (q, k, got) ->
        if got = oracle_ids (fun f init -> Array.fold_left f init elems) q ~k then bad
        else bad + 1)
      0 samples
  in
  (List.length samples, bad)

let pool () = Executor.create ~workers:1 ()

let stop_pool p =
  Executor.drain p;
  Executor.shutdown p

(* The static workloads index 16 384 elements.  At 131 072 their
   memory-bound queries made wall-clock figures differ by 30-45% from
   run to run on a shared 2-vCPU VM, against about 10% at 16 384. *)
let scatter_uniform =
  let n = 16_384 and shards = 4 and k = 100 in
  {
    name = "scatter-uniform";
    warmup_ops = 0;
    prepare =
      (fun seed ->
        let elems = elements (Rng.create seed) n in
        fun () ->
          let pool = pool () in
          let metrics = Executor.metrics pool in
          let set =
            SSet.of_elems ~params
              ~strategy:(Topk_shard.Partitioner.Range Topk_interval.Problem.weight)
              ~shards elems
          in
          let sc = Scatter.create pool (Svc.Registry.create ()) ~name:"intervals" set in
          let client = Client.create ~metrics () in
          let legs = ref 0 and pruned = ref 0 in
          let endpoint ?limits ?consistency:_ q ~k =
            let r = Scatter.query sc ?limits q ~k in
            legs := !legs + r.Scatter.fanout;
            pruned := !pruned + r.Scatter.pruned;
            {
              Response.answers = r.Scatter.answers;
              status = r.Scatter.status;
              summary = { Response.zero_summary with Response.cost = r.Scatter.cost };
              trace_id = None;
              latency = r.Scatter.latency;
              worker = 0;
              instance = "intervals";
              k;
              seq_token = None;
            }
          in
          let h = Client.attach client (Client.endpoint ~name:"scatter" endpoint) in
          let qrng = Rng.create (seed lxor 0x5ca7) in
          let sample = Reservoir.create ~seed:(seed lxor 0xc0de) 256 in
          let push_q, captured = capture () in
          let step r =
            let q = Rng.uniform qrng in
            push_q q;
            let l0 = !legs and p0 = !pruned in
            (match timed_read r (fun () -> Some (Client.query_sync h q ~k)) with
            | Some (resp, _) -> Reservoir.offer sample (fun () -> (q, k, ids resp.Response.answers))
            | None -> ());
            r.legs <- r.legs + (!legs - l0);
            r.pruned <- r.pruned + (!pruned - p0)
          in
          let replays () =
            let qs = captured () in
            (* Every (shard, point) pair, and each point's per-shard
               answers as the legs deliver them to the gather. *)
            let pairs f =
              Array.concat (List.init shards (fun i -> Array.map (fun q -> f i q) qs))
            in
            let legs = Array.map (fun q -> List.init shards (fun i -> SSet.topk_query set i q ~k)) qs in
            t2_replays ~k (pairs (fun i q -> ((SSet.shards set).(i).SSet.topk, q)))
            @ cache_replay ~k qs
            @ [ ( "shard.bound_us",
                  replay_us (pairs (fun i q -> (i, q))) (fun (i, q) -> SSet.upper_bound set i q) );
                ("gather.merge_us", replay_us legs (Gather.merge ~cmp:I.compare_weight ~k)) ]
          in
          {
            step;
            settle = (fun () -> Executor.drain pool);
            teardown = (fun () -> stop_pool pool);
            check = (fun () -> check_static elems (Reservoir.to_list sample));
            metrics;
            cache_stats = (fun () -> Client.cache_stats client);
            replays;
          });
  }

let client_zipf =
  (* 8192 points against the default 4096-entry cache keep about 90%
     of reads hits once warm, so p50 sits on hits and p99 on misses.
     Over 4096 points the warm cache holds nearly the whole working
     set and p99 falls on the unstable edge between the two. *)
  let n = 16_384 and distinct = 8192 and k = 10 in
  {
    name = "client-zipf";
    (* Every rank the cache can hold is drawn about once per 40k reads:
       by then the hit rate has reached its steady state. *)
    warmup_ops = 40_000;
    prepare =
      (fun seed ->
        let rng = Rng.create seed in
        let elems = elements rng n in
        let points = Gen.stab_queries rng ~n:distinct in
        let zipf = zipf_sampler ~theta:1.0 ~distinct in
        fun () ->
          let pool = pool () in
          let metrics = Executor.metrics pool in
          let t2 = T2.build ~params elems in
          let h = Svc.Registry.register (Svc.Registry.create ()) ~name:"intervals" (module T2) t2 in
          let client = Client.create ~metrics () in
          let ch = Client.attach client (Client.pooled pool h) in
          let qrng = Rng.create (seed lxor 0x21bf) in
          let sample = Reservoir.create ~seed:(seed lxor 0xc0de) 256 in
          let push_q, captured = capture () in
          let step r =
            let q = points.(zipf qrng) in
            push_q q;
            match timed_read r (fun () -> Some (Client.query_sync ch q ~k)) with
            | Some (resp, _) -> Reservoir.offer sample (fun () -> (q, k, ids resp.Response.answers))
            | None -> ()
          in
          {
            step;
            settle = (fun () -> Executor.drain pool);
            teardown = (fun () -> stop_pool pool);
            check = (fun () -> check_static elems (Reservoir.to_list sample));
            metrics;
            cache_stats = (fun () -> Client.cache_stats client);
            replays =
              (fun () ->
                let qs = captured () in
                t2_replays ~k (Array.map (fun q -> (t2, q)) qs) @ cache_replay ~k qs);
          });
  }

let durable_ingest =
  let n = 16_384 and distinct = 256 and k = 10 in
  {
    name = "durable-ingest";
    warmup_ops = 0;
    prepare =
      (fun seed ->
        let rng = Rng.create seed in
        let base = elements rng n in
        let points = Gen.stab_queries rng ~n:distinct in
        let zipf = zipf_sampler ~theta:1.0 ~distinct in
        let setups = ref 0 in
        fun () ->
          incr setups;
          let dir = fresh_dir (Printf.sprintf "store-%d" !setups) in
          let pool = pool () in
          (* Store does not default to the pool's registry: without an
             explicit [metrics] its WAL and checkpoint counters vanish. *)
          let metrics = Executor.metrics pool in
          let st =
            DStore.create ~params ~buffer_cap:256 ~fanout:4 ~pool ~metrics
              ~mode:(Topk_durable.Store.Async 32) ~checkpoint_every:4 ~dir base
          in
          let idx = DStore.index st in
          let h = DStore.I.register (Svc.Registry.create ()) ~name:"store" idx in
          let client = Client.create ~metrics () in
          let ch =
            Client.attach client
              ~version:(fun () -> Version.make ~term:0 ~seq:(DStore.I.last_seq idx))
              (Client.pooled pool h)
          in
          let w = Writer.create ~seed:(seed lxor 0x3a7e) base in
          let qrng = Rng.create (seed lxor 0x4d1f) in
          let sample = Reservoir.create ~seed:(seed lxor 0xc0de) 256 in
          let push_q, captured = capture () in
          let ops = ref 0 in
          let step r =
            incr ops;
            if !ops mod 4 = 0 then begin
              let q = points.(zipf qrng) in
              push_q q;
              Vec.push r.runs (float_of_int (DStore.I.run_count idx));
              Vec.push r.log_len (float_of_int (DStore.I.log_length idx));
              let seq = w.Writer.seq in
              match timed_read r (fun () -> Some (Client.query_sync ch q ~k)) with
              | Some (resp, _) ->
                  Reservoir.offer sample (fun () -> (seq, seq, q, k, ids resp.Response.answers))
              | None -> ()
            end
            else begin
              let ins, e = Writer.next w in
              let seals0 = Metrics.Counter.get metrics.Metrics.seals in
              let (), dt =
                timed_write r (fun () -> if ins then DStore.insert st e else DStore.delete st e)
              in
              Vec.push
                (if Metrics.Counter.get metrics.Metrics.seals > seals0 then r.write_seal_us
                 else r.write_plain_us)
                dt
            end
          in
          let replays () =
            let qs = captured () in
            let view = DStore.I.pin idx in
            let ingest_us = replay_us qs (fun q -> DStore.I.query_view view q ~k) in
            DStore.I.unpin view;
            live_replays w ~k qs
            @ [ ("ingest.query_us", ingest_us);
                ( "durable.disk_bytes_per_elem",
                  float_of_int (disk_bytes dir) /. float_of_int (max 1 w.Writer.n_live) ) ]
          in
          {
            step;
            settle = (fun () -> Executor.drain pool);
            teardown =
              (fun () ->
                DStore.close st;
                stop_pool pool;
                rm_rf dir);
            check =
              (fun () ->
                let s = Reservoir.to_list sample in
                (List.length s, Writer.check w ~base s));
            metrics;
            cache_stats = (fun () -> Client.cache_stats client);
            replays;
          });
  }

let repl_rw =
  let n = 4096 and k = 10 in
  {
    name = "repl-rw";
    warmup_ops = 0;
    prepare =
      (fun seed ->
        let base = elements (Rng.create seed) n in
        fun () ->
          (* A group runs on the calling domain over its virtual-clock
             transport; it takes no pool. *)
          let metrics = Metrics.create () in
          let g =
            Group.create ~params ~buffer_cap:256
              ~plan:(Topk_repl.Transport.clean ~seed)
              ~metrics ~name:"repl" ~replicas:2 base
          in
          let primary () = Group.R.index (Group.node g (Group.primary g)) in
          let w = Writer.create ~seed:(seed lxor 0x3a7e) base in
          let qrng = Rng.create (seed lxor 0x6e11) in
          let sample = Reservoir.create ~seed:(seed lxor 0xc0de) 256 in
          let push_q, captured = capture () in
          let ops = ref 0 and reads = ref 0 and last_write = ref 0 in
          let step r =
            incr ops;
            if !ops mod 4 = 1 then begin
              let ins, e = Writer.next w in
              let outcome, _ =
                timed_write r (fun () -> if ins then Group.insert g e else Group.delete g e)
              in
              if Group.write_seq outcome <> w.Writer.seq then
                failwith
                  (Printf.sprintf "repl-rw: write got seq %d, expected %d"
                     (Group.write_seq outcome) w.Writer.seq);
              if Group.synced outcome then r.synced <- r.synced + 1;
              last_write := w.Writer.seq
            end
            else begin
              incr reads;
              let q = Rng.uniform qrng in
              push_q q;
              let ryw = !reads mod 2 = 0 in
              let floor = if ryw then !last_write else 0 in
              let consistency = if ryw then Consistency.At_least floor else Consistency.Any in
              r.lag_max <- max r.lag_max (Group.lag g);
              Vec.push r.runs (float_of_int (Group.I.run_count (primary ())));
              Vec.push r.log_len (float_of_int (Group.I.log_length (primary ())));
              match timed_read ~client:false r (fun () -> Group.read ~consistency g q ~k) with
              | Some (resp, dt) -> (
                  Vec.push (if ryw then r.read_ryw_us else r.read_any_us) dt;
                  match Response.seq_token resp with
                  | Some tok ->
                      Reservoir.offer sample (fun () -> (tok, floor, q, k, ids resp.Response.answers))
                  | None -> r.failed <- r.failed + 1)
              | None -> ()
            end
          in
          let replays () =
            let qs = captured () in
            let view = Group.I.pin (primary ()) in
            let ingest_us = replay_us qs (fun q -> Group.I.query_view view q ~k) in
            Group.I.unpin view;
            live_replays w ~k qs @ [ ("ingest.query_us", ingest_us) ]
          in
          {
            step;
            settle = ignore;
            teardown = ignore;
            check =
              (fun () ->
                let s = Reservoir.to_list sample in
                (List.length s, Writer.check w ~base s));
            metrics;
            cache_stats = (fun () -> None);
            replays;
          });
  }

let workloads = [ scatter_uniform; client_zipf; durable_ingest; repl_rw ]

(* ---------- metric vocabulary ---------- *)

(* End-to-end metrics of a [--trace 0] run, as named in BENCHMARK.json. *)
let end_to_end =
  [ ("setup_s", "s"); ("ops_per_s", "ops/s"); ("read_p50_us", "us"); ("read_ios", "ios/read");
    ("heap_peak_mb", "MB") ]

(* Library spans whose summed self time a traced run reports per
   operation.  [request] is the worker-side root of a pooled query:
   its self time is the executor's own share of serving it. *)
let traced_spans =
  [ "t2.query"; "t2.round"; "request"; "scatter.bounds"; "scatter.leg"; "ingest.replay";
    "ingest.seal"; "ingest.merge"; "repl.read"; "cache.hit" ]

(* Per-layer metrics of a [--trace 1] run.  A metric whose layer the
   workload does not exercise reads 0. *)
let per_layer =
  [ ("read_p99_us", "us"); ("write_p50_us", "us"); ("write_p99_us", "us");
    ("write_ios", "ios/write"); ("error_rate", "fraction");
    ("t2.query_us", "us"); ("t2.ios", "ios/query"); ("t2.rounds", "rounds/query");
    ("shard.bound_us", "us"); ("gather.merge_us", "us"); ("scatter.legs", "legs/read");
    ("scatter.pruned", "shards/read"); ("scatter.leg_us", "us"); ("scatter.self_us", "us");
    ("client.hit_us", "us"); ("client.miss_us", "us"); ("exec.wait_us", "us");
    ("exec.batch", "jobs/wakeup"); ("lane.interactive_p99_us", "us");
    ("lane.batch_jobs", "jobs/kop");
    ("cache.hit_rate", "fraction"); ("cache.stale_rate", "fraction");
    ("cache.evictions_per_read", "1/read"); ("cache.find_ns", "ns");
    ("ingest.runs", "runs"); ("ingest.log_len", "entries"); ("ingest.query_us", "us");
    ("ingest.seals", "1/kwrite"); ("ingest.merges", "1/kwrite"); ("ingest.merge_us", "us");
    ("wal.fsyncs_per_write", "1/write"); ("wal.append_us", "us");
    ("durable.write_plain_us", "us"); ("durable.write_seal_us", "us");
    ("durable.checkpoints", "1/kwrite"); ("durable.disk_bytes_per_elem", "B/elem");
    ("repl.frames_per_write", "1/write"); ("repl.synced_ratio", "fraction");
    ("repl.lag_max", "seqs"); ("repl.read_any_us", "us"); ("repl.read_ryw_us", "us");
    ("wire.codec_us", "us");
    ("gc.minor_words_per_op", "words/op"); ("gc.promoted_words_per_op", "words/op");
    ("gc.major_per_kop", "1/kop"); ("trace.overhead_pct", "%") ]
  @ List.map (fun s -> ("span." ^ s ^ ".self_us", "us/op")) traced_spans

(* ---------- driver ---------- *)

type config = {
  workload : workload;
  seed : int;
  seconds : float;
  trace : bool;
  ops : int option;
}

let usage =
  "bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--ops N]\nworkloads: "
  ^ String.concat ", " (List.map (fun w -> w.name) workloads)

let parse () =
  let workload = ref "" and seed = ref None and seconds = ref 10. and trace = ref 0 in
  let ops = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Int (fun s -> seed := Some s), "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
      ("--ops", Arg.Set_int ops, "N run exactly N operations per phase (determinism check)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let fail msg =
    prerr_endline ("bench: " ^ msg);
    prerr_endline usage;
    exit 2
  in
  let workload =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None -> fail (Printf.sprintf "unknown workload %S" !workload)
  in
  let seed = match !seed with Some s -> s | None -> fail "--seed is required" in
  if not (!seconds > 0.) then fail "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  if !ops < 0 then fail "--ops must be >= 0";
  { workload; seed; seconds = !seconds; trace = !trace = 1; ops = (if !ops > 0 then Some !ops else None) }

let per x n = if n = 0 then 0. else x /. float_of_int n

(* Registry counters and histograms the benchmark reads, by name. *)
let counters =
  [ ("wal_appends", fun mt -> mt.Metrics.wal_appends);
    ("wal_fsyncs", fun mt -> mt.Metrics.wal_fsyncs);
    ("checkpoints", fun mt -> mt.Metrics.checkpoints);
    ("seals", fun mt -> mt.Metrics.seals);
    ("merges", fun mt -> mt.Metrics.merges);
    ("repl_frames_shipped", fun mt -> mt.Metrics.repl_frames_shipped);
    ("batch_jobs", fun mt -> mt.Metrics.lane_admitted.(Svc.Lane.index Svc.Lane.Batch)) ]

let histograms =
  [ ("shard_latency_us", fun mt -> mt.Metrics.shard_latency_us);
    ("batch", fun mt -> mt.Metrics.batch) ]

let read_counters (sess : session) =
  List.map
    (fun (name, f) ->
      (name, Metrics.Counter.get (f sess.metrics)))
    counters

(* (count, sum) of each histogram. *)
let read_histograms (sess : session) =
  List.map
    (fun (name, f) ->
      (name, (Metrics.Histogram.count (f sess.metrics), Metrics.Histogram.sum (f sess.metrics))))
    histograms

let cache_counts (sess : session) =
  match sess.cache_stats () with
  | Some s -> [| s.Cache.st_hits; s.Cache.st_misses; s.Cache.st_stale; s.Cache.st_evictions |]
  | None -> [| 0; 0; 0; 0 |]

(* A slice of a timed window: at least [slice_us] long and at least
   [slice_reads_min] reads, so its p99 has ten reads beyond it. *)
type slice = { rate : float; p50 : float; p99 : float }

let slice_us = 500_000.
let slice_reads_min = 1000

(* One measured phase, accumulated over one or more blocks. *)
type phase = {
  rec_ : recorder;
  spans : Spans.t option;  (* [Some] for the traced phase *)
  mutable elapsed_us : float;  (* measured time, trace draining excluded *)
  mutable slices : slice list;
  mutable write_ios : int;  (* charged I/O not charged to a read *)
  mutable gc : gc;
  mutable cache : int array;  (* hits, misses, stale, evictions *)
  mutable counters : (string * int) list;
  mutable hists : (string * (int * int)) list;
}

let new_phase ~traced =
  {
    rec_ = recorder ();
    spans = (if traced then Some (Spans.create ()) else None);
    elapsed_us = 0.;
    slices = [];
    write_ios = 0;
    gc = { minor = 0.; promoted = 0.; majors = 0 };
    cache = [| 0; 0; 0; 0 |];
    counters = List.map (fun (name, _) -> (name, 0)) counters;
    hists = List.map (fun (name, _) -> (name, (0, 0))) histograms;
  }

(* Run one block of a phase — [cfg.ops] operations, or [seconds] of
   them — and add its deltas to the phase. *)
let run_block cfg sess ph ~seconds =
  let r = ph.rec_ in
  let drain_us = ref 0. in
  let step () =
    match ph.spans with
    | None -> sess.step r
    | Some acc ->
        ignore (Topk_trace.Trace.with_root "bench.op" (fun () -> sess.step r));
        if r.attempted mod 32 = 0 then begin
          let t0 = now_us () in
          Spans.drain acc;
          drain_us := !drain_us +. (now_us () -. t0)
        end
  in
  if ph.spans <> None then begin
    Topk_trace.Trace.Store.set_capacity 4096;
    Topk_trace.Trace.enable ()
  end;
  let read_ios0 = r.read_ios and stats0 = Stats.aggregate () and gc0 = gc_now () in
  let cache0 = cache_counts sess and c0 = read_counters sess and h0 = read_histograms sess in
  let t0 = now_us () in
  (match cfg.ops with
  | Some n ->
      for _ = 1 to n do
        step ();
        sess.settle ()
      done
  | None ->
      let stop = t0 +. (seconds *. 1e6) in
      let now = ref t0 and slice_t0 = ref t0 and slice_ops = ref 0 and slice_drain = ref 0. in
      let slice_reads = ref (Vec.length r.reads) in
      while !now < stop do
        step ();
        incr slice_ops;
        now := now_us ();
        if !now -. !slice_t0 >= slice_us && Vec.length r.reads - !slice_reads >= slice_reads_min
        then begin
          let span_s = (!now -. !slice_t0 -. (!drain_us -. !slice_drain)) /. 1e6 in
          (match Vec.percentiles ~from:!slice_reads r.reads [ 0.5; 0.99 ] with
          | [ p50; p99 ] ->
              ph.slices <- { rate = float_of_int !slice_ops /. span_s; p50; p99 } :: ph.slices
          | _ -> assert false);
          (* The next slice starts after this bookkeeping. *)
          now := now_us ();
          slice_t0 := !now;
          slice_ops := 0;
          slice_drain := !drain_us;
          slice_reads := Vec.length r.reads
        end
      done);
  ph.elapsed_us <- ph.elapsed_us +. (now_us () -. t0 -. !drain_us);
  if ph.spans <> None then Topk_trace.Trace.disable ();
  let gc1 = gc_now () in
  sess.settle ();
  Option.iter Spans.drain ph.spans;
  let stats1 = Stats.aggregate () in
  ph.write_ios <- ph.write_ios + (Stats.diff stats1 stats0).Stats.ios - (r.read_ios - read_ios0);
  ph.gc <-
    {
      minor = ph.gc.minor +. gc1.minor -. gc0.minor;
      promoted = ph.gc.promoted +. gc1.promoted -. gc0.promoted;
      majors = ph.gc.majors + gc1.majors - gc0.majors;
    };
  let cache1 = cache_counts sess in
  ph.cache <- Array.mapi (fun i v -> v + cache1.(i) - cache0.(i)) ph.cache;
  ph.counters <-
    List.map2 (fun (name, v) ((_, a), (_, b)) -> (name, v + b - a)) ph.counters
      (List.combine c0 (read_counters sess));
  ph.hists <-
    List.map2
      (fun (name, (c, s)) ((_, (c0, s0)), (_, (c1, s1))) -> (name, (c + c1 - c0, s + s1 - s0)))
      ph.hists
      (List.combine h0 (read_histograms sess))

(* The end-to-end figures of a phase: the median over its slices of
   each slice's rate, p50 and p99, so that one contended stretch of
   the machine does not set the whole run's figure; the whole window's
   values when no slice completed. *)
let rate ph =
  match ph.slices with
  | [] -> per (float_of_int ph.rec_.attempted *. 1e6) (int_of_float ph.elapsed_us)
  | l -> median (List.map (fun s -> s.rate) l)

let read_percentile ph q =
  match ph.slices with
  | [] -> Vec.percentile ph.rec_.reads q
  | l -> median (List.map (fun s -> if q = 0.5 then s.p50 else s.p99) l)

(* The per-layer metrics: [p] is the untraced phase, [t] the traced one. *)
let layer_metrics sess ~(p : phase) ~(t : phase) =
  let r = p.rec_ in
  let reads = Vec.length r.reads and writes = Vec.length r.writes in
  let ops = r.attempted in
  let delta name = List.assoc name p.counters in
  let hist_sum name = float_of_int (snd (List.assoc name p.hists)) in
  let hist_mean name = per (hist_sum name) (fst (List.assoc name p.hists)) in
  let spans = Option.get t.spans in
  let traced_ops = t.rec_.attempted and traced_writes = Vec.length t.rec_.writes in
  let lookups = p.cache.(0) + p.cache.(1) + p.cache.(2) in
  let span_rate name = per (float_of_int (Spans.count spans name) *. 1e3) traced_writes in
  let measured =
    [ ("read_p99_us", read_percentile p 0.99);
      ("write_p50_us", Vec.percentile r.writes 0.5); ("write_p99_us", Vec.percentile r.writes 0.99);
      ("write_ios", per (float_of_int p.write_ios) writes);
      ("error_rate", per (float_of_int r.failed) ops);
      ( "t2.rounds",
        per (float_of_int (Spans.count spans "t2.round")) (Spans.count spans "t2.query") );
      ("scatter.legs", per (float_of_int r.legs) reads);
      ("scatter.pruned", per (float_of_int r.pruned) reads);
      ("scatter.leg_us", hist_mean "shard_latency_us");
      ( "scatter.self_us",
        if r.legs = 0 then 0. else per (Vec.sum r.miss_us -. hist_sum "shard_latency_us") reads );
      ("client.hit_us", Vec.percentile r.hit_us 0.5);
      ("client.miss_us", Vec.percentile r.miss_us 0.5);
      ("exec.wait_us", Vec.mean spans.Spans.queued_us);
      ("exec.batch", hist_mean "batch");
      ( "lane.interactive_p99_us",
        float_of_int
          (Metrics.Histogram.percentile
             sess.metrics.Metrics.lane_latency_us.(Svc.Lane.index Svc.Lane.Interactive)
             0.99) );
      ("lane.batch_jobs", per (float_of_int (delta "batch_jobs") *. 1e3) ops);
      ("cache.hit_rate", per (float_of_int p.cache.(0)) lookups);
      ("cache.stale_rate", per (float_of_int p.cache.(2)) lookups);
      ("cache.evictions_per_read", per (float_of_int p.cache.(3)) reads);
      ("ingest.runs", Vec.mean r.runs); ("ingest.log_len", Vec.mean r.log_len);
      ("ingest.seals", span_rate "ingest.seal"); ("ingest.merges", span_rate "ingest.merge");
      ( "ingest.merge_us",
        per (Spans.dur_us spans "ingest.merge") (Spans.count spans "ingest.merge") );
      ("wal.fsyncs_per_write", per (float_of_int (delta "wal_fsyncs")) writes);
      ("durable.write_plain_us", Vec.percentile r.write_plain_us 0.5);
      ("durable.write_seal_us", Vec.mean r.write_seal_us);
      ("durable.checkpoints", per (float_of_int (delta "checkpoints") *. 1e3) writes);
      ("repl.frames_per_write", per (float_of_int (delta "repl_frames_shipped")) writes);
      ("repl.synced_ratio", per (float_of_int r.synced) writes);
      ("repl.lag_max", float_of_int r.lag_max);
      ("repl.read_any_us", Vec.percentile r.read_any_us 0.5);
      ("repl.read_ryw_us", Vec.percentile r.read_ryw_us 0.5);
      ("gc.minor_words_per_op", per p.gc.minor ops);
      ("gc.promoted_words_per_op", per p.gc.promoted ops);
      ("gc.major_per_kop", per (float_of_int p.gc.majors *. 1e3) ops);
      ( "trace.overhead_pct",
        let untraced = per (float_of_int ops) (int_of_float p.elapsed_us)
        and traced = per (float_of_int traced_ops) (int_of_float t.elapsed_us) in
        if traced > 0. then 100. *. ((untraced /. traced) -. 1.) else 0. ) ]
    @ List.map
        (fun span -> ("span." ^ span ^ ".self_us", per (Spans.self_us spans span) traced_ops))
        traced_spans
    @ sess.replays ()
  in
  List.map (fun (name, unit_) -> m name unit_ (Option.value ~default:0. (List.assoc_opt name measured))) per_layer

let print_table title metrics =
  Printf.printf "%s\n" title;
  List.iter (fun { name; value; unit_ } -> Printf.printf "  %-30s %16.4f %s\n" name value unit_) metrics

(* Set up at least three times, and until 1.5 s of set-up have been
   measured (at most 50 times); keep the last session.  Each earlier
   one is torn down and collected before the next is built. *)
let set_up setup =
  let rec go times sess =
    let n = List.length times in
    if n >= 3 && (List.fold_left ( +. ) 0. times >= 1.5 || n >= 50) then (median times, sess)
    else begin
      sess.teardown ();
      Gc.full_major ();
      let t0 = now_us () in
      let s = setup () in
      go (((now_us () -. t0) /. 1e6) :: times) s
    end
  in
  Gc.full_major ();
  let t0 = now_us () in
  let s = setup () in
  go [ (now_us () -. t0) /. 1e6 ] s

let main () =
  let cfg = parse () in
  let wl = cfg.workload in
  Printf.printf "perfbench: workload=%s seed=%d seconds=%g trace=%d nproc=%d ocaml=%s\n%!" wl.name
    cfg.seed cfg.seconds (if cfg.trace then 1 else 0) (Domain.recommended_domain_count ())
    Sys.ocaml_version;
  let setup_s, sess = set_up (wl.prepare cfg.seed) in
  (* Untimed warm-up: fills the cache and lets lazy set-up finish. *)
  let warm = recorder () in
  (match cfg.ops with
  | Some n ->
      for _ = 1 to n / 4 do
        sess.step warm;
        sess.settle ()
      done
  | None ->
      let stop = now_us () +. (1e6 *. Float.min 1. (cfg.seconds /. 5.)) in
      while now_us () < stop || warm.attempted < wl.warmup_ops do
        sess.step warm
      done);
  sess.settle ();
  (* A traced run alternates untraced and traced blocks, so both see
     the same state of the system; the untraced blocks give the
     per-layer numbers measured by the benchmark and the overhead
     baseline. *)
  let p = new_phase ~traced:false in
  let t = if cfg.trace then Some (new_phase ~traced:true) else None in
  let blocks = if cfg.trace && cfg.ops = None then 4 else 1 in
  let block_s = cfg.seconds /. float_of_int (blocks * if cfg.trace then 2 else 1) in
  for _ = 1 to blocks do
    run_block cfg sess p ~seconds:block_s;
    Option.iter (fun t -> run_block cfg sess t ~seconds:block_s) t
  done;
  (* Read before the oracle check and the percentile sorts allocate. *)
  let heap_mb = heap_peak_mb () in
  let checked, mismatches = sess.check () in
  let r = p.rec_ in
  let reads = Vec.length r.reads and writes = Vec.length r.writes in
  (* Exact counters of the untraced phase: with [--ops] they repeat
     for a seed. *)
  let counts =
    [ ("reads", reads); ("writes", writes); ("read_ios", r.read_ios); ("write_ios", p.write_ios);
      ("cache_hits", p.cache.(0)); ("cache_misses", p.cache.(1)); ("cache_stale", p.cache.(2));
      ("cache_evictions", p.cache.(3)) ]
    @ p.counters
  in
  Printf.printf "counts: {%s}\n"
    (String.concat ", " (List.map (fun (name, v) -> Printf.sprintf "\"%s\": %d" name v) counts));
  let attempted = r.attempted and failed = r.failed in
  let metrics =
    match t with
    | None ->
        let e2e =
          [ ("setup_s", setup_s); ("ops_per_s", rate p); ("read_p50_us", read_percentile p 0.5);
            ("read_ios", per (float_of_int r.read_ios) reads); ("heap_peak_mb", heap_mb) ]
        in
        let shown = List.map (fun (name, unit_) -> m name unit_ (List.assoc name e2e)) end_to_end in
        (* The table also shows the issue's other end-to-end figures,
           which the result line reports per layer. *)
        let writes_shown =
          if writes = 0 then []
          else
            [ m "write_p50_us" "us" (Vec.percentile r.writes 0.5);
              m "write_p99_us" "us" (Vec.percentile r.writes 0.99);
              m "write_ios" "ios/write" (per (float_of_int p.write_ios) writes) ]
        in
        print_table
          (Printf.sprintf "end-to-end (%d reads, %d writes, %.2f s measured, %d slices)" reads
             writes (p.elapsed_us /. 1e6) (List.length p.slices))
          ((shown @ [ m "read_p99_us" "us" (read_percentile p 0.99) ]) @ writes_shown);
        Printf.printf "  %-30s %16.4f fraction\n" "error_rate" (per (float_of_int failed) attempted);
        if writes = 0 then print_endline "  write_p50_us, write_p99_us, write_ios: n/a (no writes)";
        shown
    | Some t ->
        let layers = layer_metrics sess ~p ~t in
        print_table "per-layer" layers;
        layers
  in
  sess.teardown ();
  Printf.printf "oracle: %d sampled answers checked, %d mismatches\n" checked mismatches;
  let correct = mismatches = 0 && checked > 0 in
  print_endline (result_line ~correct ~attempted ~failed:(failed + mismatches) metrics);
  if not correct then exit 1

let () =
  (* A terminated run still removes its scratch files (at_exit). *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ];
  try main ()
  with e ->
    Printf.eprintf "bench: %s\n" (Printexc.to_string e);
    exit 2

