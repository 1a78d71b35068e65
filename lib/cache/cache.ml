(* Sharded-by-key, mutex-striped certified answer cache.

   Entries memoize the answer list of a completed top-k query, keyed
   by (instance name, canonical query key) and tagged with the
   {!Version} they were computed at.  The stripe a key lands on is a
   hash of the key, so concurrent lookups of different hot keys take
   different locks; one stripe's mutex is only ever held for a
   hashtable probe or an O(stripe) eviction scan, never across user
   code.

   Three design points, mirroring the paper's core-set economics:

   - {b Prefix serving.}  A top-k list is exact for every rank it
     covers, so an entry admitted at [k] answers any [k' <= k] as a
     certified prefix (and any [k'] at all when the list is shorter
     than its [k] — the query exhausted the matching set).  This is
     Lemma 2's nested-rank property lifted to the serving layer.

   - {b Cost-aware admission.}  Precomputed answers are worth keeping
     exactly when recomputing them is expensive; an answer whose
     traced charged I/O is below [min_cost] is refused ([`Bypassed])
     rather than allowed to evict a costlier one.

   - {b Version-tagged invalidation.}  An entry never "goes bad" — it
     stays exact at its version forever.  Whether it may {e serve} is
     the reader's {!Consistency} rule against the live version, so
     invalidation is free: publishing a new epoch or bumping the
     failover term makes old entries unservable without touching the
     cache. *)

type 'v entry = {
  e_version : Version.t;
  e_k : int;  (* the k the answer was computed for *)
  e_len : int;  (* answers actually present ([< e_k] = exhausted) *)
  e_cost : int;  (* charged I/Os the original computation paid *)
  e_payload : 'v;
  e_inserted : float;
  mutable e_last_hit : float;
  mutable e_hits : int;
}

type 'v slot = { mutable sl_entry : 'v entry; mutable sl_stamp : int }

type 'v stripe = {
  s_mutex : Mutex.t;
  s_tbl : (string, 'v slot) Hashtbl.t;
  mutable s_tick : int;  (* LRU clock: bumped on every hit/admit *)
}

type 'v t = {
  stripes : 'v stripe array;
  mask : int;
  per_stripe_cap : int;
  ttl : float option;
  min_cost : int;
  on_evict : (unit -> unit) option;
  (* stats *)
  hits : int Atomic.t;
  misses : int Atomic.t;
  stale : int Atomic.t;
  admits : int Atomic.t;
  bypasses : int Atomic.t;
  evictions : int Atomic.t;
}

type stats = {
  st_hits : int;
  st_misses : int;
  st_stale : int;
  st_admits : int;
  st_bypasses : int;
  st_evictions : int;
  st_entries : int;
}

let rec pow2_at_least n p = if p >= n then p else pow2_at_least n (2 * p)

let create ?(stripes = 8) ?(capacity = 4096) ?ttl ?(min_cost = 1) ?on_evict ()
    =
  if stripes < 1 then
    invalid_arg
      (Printf.sprintf "Cache.create: stripes must be >= 1 (got %d)" stripes);
  if capacity < 1 then
    invalid_arg
      (Printf.sprintf "Cache.create: capacity must be >= 1 (got %d)" capacity);
  (match ttl with
  | Some s when not (s > 0.) ->
      invalid_arg (Printf.sprintf "Cache.create: ttl must be positive (got %g)" s)
  | _ -> ());
  if min_cost < 0 then
    invalid_arg
      (Printf.sprintf "Cache.create: min_cost must be >= 0 (got %d)" min_cost);
  let stripes = pow2_at_least stripes 1 in
  {
    stripes =
      Array.init stripes (fun _ ->
          {
            s_mutex = Mutex.create ();
            s_tbl = Hashtbl.create 64;
            s_tick = 0;
          });
    mask = stripes - 1;
    per_stripe_cap = max 1 (capacity / stripes);
    ttl;
    min_cost;
    on_evict;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
    stale = Atomic.make 0;
    admits = Atomic.make 0;
    bypasses = Atomic.make 0;
    evictions = Atomic.make 0;
  }

let key ~instance ~qkey = instance ^ "\x00" ^ qkey

let stripe_of t k = t.stripes.(Hashtbl.hash k land t.mask)

let expired t e ~now =
  match t.ttl with None -> false | Some ttl -> now -. e.e_inserted > ttl

(* Evictions are reported to [on_evict] outside the stripe mutex so
   the callback (typically a metrics counter) cannot deadlock against
   a re-entrant cache call. *)
let report_evictions t n =
  if n > 0 then begin
    ignore (Atomic.fetch_and_add t.evictions n);
    match t.on_evict with
    | None -> ()
    | Some f ->
        for _ = 1 to n do
          f ()
        done
  end

type 'v outcome = Hit of 'v entry | Stale | Miss

let find t ~instance ~qkey ~current ?(consistency = Consistency.Any) ~k ~now
    () =
  Consistency.validate consistency;
  let key = key ~instance ~qkey in
  let s = stripe_of t key in
  let outcome, evicted =
    Mutex.protect s.s_mutex (fun () ->
        match Hashtbl.find_opt s.s_tbl key with
        | None -> (Miss, 0)
        | Some slot ->
            let e = slot.sl_entry in
            if expired t e ~now then begin
              Hashtbl.remove s.s_tbl key;
              (Miss, 1)
            end
            else if
              not (Consistency.admits ~current ~entry:e.e_version consistency)
            then (Stale, 0)
            else if k <= e.e_k || e.e_len < e.e_k then begin
              (* Serveable prefix: either the request fits inside the
                 stored rank range, or the stored list already
                 exhausted the matching set. *)
              s.s_tick <- s.s_tick + 1;
              slot.sl_stamp <- s.s_tick;
              e.e_last_hit <- now;
              e.e_hits <- e.e_hits + 1;
              (Hit e, 0)
            end
            else (Miss, 0))
  in
  report_evictions t evicted;
  (match outcome with
  | Hit _ -> Atomic.incr t.hits
  | Stale -> Atomic.incr t.stale
  | Miss -> Atomic.incr t.misses);
  outcome

(* Evict least-recently-used slots until the stripe fits.  The scan is
   O(stripe size), which admission-gating keeps small and rare; in
   exchange the order is exact LRU with no per-hit allocation. *)
let evict_over_capacity t s =
  let n = ref 0 in
  while Hashtbl.length s.s_tbl > t.per_stripe_cap do
    let victim =
      Hashtbl.fold
        (fun k slot acc ->
          match acc with
          | Some (_, stamp) when stamp <= slot.sl_stamp -> acc
          | _ -> Some (k, slot.sl_stamp))
        s.s_tbl None
    in
    match victim with
    | None -> ()
    | Some (k, _) ->
        Hashtbl.remove s.s_tbl k;
        incr n
  done;
  !n

let admit t ~instance ~qkey ~version ~k ~len ~cost ~now payload =
  if k < 0 then
    invalid_arg (Printf.sprintf "Cache.admit: k must be >= 0 (got %d)" k);
  if len < 0 || cost < 0 then
    invalid_arg "Cache.admit: len and cost must be >= 0";
  if cost < t.min_cost then begin
    Atomic.incr t.bypasses;
    `Bypassed
  end
  else begin
    let key = key ~instance ~qkey in
    let s = stripe_of t key in
    let fresh stamp =
      {
        sl_entry =
          {
            e_version = version;
            e_k = k;
            e_len = len;
            e_cost = cost;
            e_payload = payload;
            e_inserted = now;
            e_last_hit = now;
            e_hits = 0;
          };
        sl_stamp = stamp;
      }
    in
    let decision, evicted =
      Mutex.protect s.s_mutex (fun () ->
          let install () =
            s.s_tick <- s.s_tick + 1;
            Hashtbl.replace s.s_tbl key (fresh s.s_tick);
            let ev = evict_over_capacity t s in
            (`Admitted, ev)
          in
          match Hashtbl.find_opt s.s_tbl key with
          | None -> install ()
          | Some slot ->
              let e = slot.sl_entry in
              if expired t e ~now then begin
                Hashtbl.remove s.s_tbl key;
                let d, ev = install () in
                (d, ev + 1)
              end
              else if Version.newer_than e.e_version version then
                (* Never replace a fresher answer with a staler one:
                   a slow query racing a fast update must not roll the
                   cache back. *)
                (`Superseded, 0)
              else if Version.equal e.e_version version && e.e_k >= k then
                (* Same snapshot, already covering at least this rank
                   range — nothing to gain. *)
                (`Superseded, 0)
              else install ())
    in
    report_evictions t evicted;
    (match decision with `Admitted -> Atomic.incr t.admits | `Superseded -> ());
    decision
  end

let invalidate t ~instance ~qkey =
  let key = key ~instance ~qkey in
  let s = stripe_of t key in
  let removed =
    Mutex.protect s.s_mutex (fun () ->
        if Hashtbl.mem s.s_tbl key then begin
          Hashtbl.remove s.s_tbl key;
          true
        end
        else false)
  in
  if removed then report_evictions t 1;
  removed

let clear t =
  let n = ref 0 in
  Array.iter
    (fun s ->
      Mutex.protect s.s_mutex (fun () ->
          n := !n + Hashtbl.length s.s_tbl;
          Hashtbl.reset s.s_tbl))
    t.stripes;
  report_evictions t !n

let length t =
  Array.fold_left
    (fun acc s ->
      acc + Mutex.protect s.s_mutex (fun () -> Hashtbl.length s.s_tbl))
    0 t.stripes

let min_cost t = t.min_cost

let stats t =
  {
    st_hits = Atomic.get t.hits;
    st_misses = Atomic.get t.misses;
    st_stale = Atomic.get t.stale;
    st_admits = Atomic.get t.admits;
    st_bypasses = Atomic.get t.bypasses;
    st_evictions = Atomic.get t.evictions;
    st_entries = length t;
  }

let hit_rate t =
  let st = stats t in
  let looked = st.st_hits + st.st_misses + st.st_stale in
  if looked = 0 then 0. else float_of_int st.st_hits /. float_of_int looked
