(* Sharded-by-key, mutex-striped certified answer cache.

   Entries memoize the answers of a completed top-k query, keyed
   by (instance name, canonical query key) and tagged with the
   {!Version} they were computed at.  The stripe a key lands on is a
   hash of the key, so concurrent lookups of different hot keys take
   different locks; one stripe's mutex is only ever held for a
   hashtable probe and an O(1) relink of its recency list, never
   across user code.

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

(* A stripe keeps its recency order in a doubly linked list over
   positions [0, s_cap) of three parallel arrays, with position [s_cap]
   the sentinel: [s_next.(s_cap)] is the most recently used position
   and [s_prev.(s_cap)] the least.  The links are [int] arrays, so
   relinking a slot on a hit stores immediates and pays no write
   barrier.  Free positions are chained through [s_next] from
   [s_free] ([-1]: the stripe is full). *)
type 'v slot = { mutable sl_entry : 'v entry; sl_pos : int }

(* Keys are strings: compare them with [String.equal] rather than the
   polymorphic compare of the generic [Hashtbl]. *)
module Tbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type 'v stripe = {
  s_mutex : Mutex.t;
  s_tbl : 'v slot Tbl.t;
  s_cap : int;
  s_keys : string array;  (* key held at each position, for eviction *)
  s_prev : int array;
  s_next : int array;
  mutable s_free : int;
}

type 'v t = {
  stripes : 'v stripe array;
  mask : int;
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

let rec pow2_at_most n p = if 2 * p > n then p else pow2_at_most n (2 * p)

(* Empty list, every position free. *)
let reset_links s =
  let cap = s.s_cap in
  Array.fill s.s_keys 0 cap "";
  s.s_prev.(cap) <- cap;
  s.s_next.(cap) <- cap;
  for i = 0 to cap - 1 do
    s.s_next.(i) <- (if i + 1 < cap then i + 1 else -1)
  done;
  s.s_free <- 0

let make_stripe cap =
  let s =
    {
      s_mutex = Mutex.create ();
      s_tbl = Tbl.create cap;  (* a stripe never holds more than [cap] *)
      s_cap = cap;
      s_keys = Array.make cap "";
      s_prev = Array.make (cap + 1) 0;
      s_next = Array.make (cap + 1) 0;
      s_free = 0;
    }
  in
  reset_links s;
  s

let unlink s i =
  let p = s.s_prev.(i) and n = s.s_next.(i) in
  s.s_next.(p) <- n;
  s.s_prev.(n) <- p

let push_front s i =
  let sentinel = s.s_cap in
  let h = s.s_next.(sentinel) in
  s.s_next.(i) <- h;
  s.s_prev.(i) <- sentinel;
  s.s_prev.(h) <- i;
  s.s_next.(sentinel) <- i

let touch s i =
  if s.s_next.(s.s_cap) <> i then begin
    unlink s i;
    push_front s i
  end

(* Drop [key], held at position [i], and free the position. *)
let remove s key i =
  Tbl.remove s.s_tbl key;
  unlink s i;
  s.s_keys.(i) <- "";
  s.s_next.(i) <- s.s_free;
  s.s_free <- i

let create ?(stripes = 8) ?(capacity = 4096) ?(min_cost = 1) ?on_evict () =
  if stripes < 1 then
    invalid_arg
      (Printf.sprintf "Cache.create: stripes must be >= 1 (got %d)" stripes);
  if capacity < 1 then
    invalid_arg
      (Printf.sprintf "Cache.create: capacity must be >= 1 (got %d)" capacity);
  if min_cost < 0 then
    invalid_arg
      (Printf.sprintf "Cache.create: min_cost must be >= 0 (got %d)" min_cost);
  (* No more stripes than entries, and the first [capacity mod n]
     stripes take one extra slot, so the stripes hold exactly
     [capacity] between them. *)
  let n = min (pow2_at_least stripes 1) (pow2_at_most capacity 1) in
  {
    stripes =
      Array.init n (fun i ->
          make_stripe ((capacity / n) + if i < capacity mod n then 1 else 0));
    mask = n - 1;
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
  let outcome =
    Mutex.protect s.s_mutex (fun () ->
        match Tbl.find s.s_tbl key with
        | exception Not_found -> Miss
        | slot ->
            let e = slot.sl_entry in
            if not (Consistency.admits ~current ~entry:e.e_version consistency)
            then Stale
            else if k <= e.e_k || e.e_len < e.e_k then begin
              (* Serveable prefix: either the request fits inside the
                 stored rank range, or the stored list already
                 exhausted the matching set. *)
              touch s slot.sl_pos;
              e.e_last_hit <- now;
              e.e_hits <- e.e_hits + 1;
              Hit e
            end
            else Miss)
  in
  (match outcome with
  | Hit _ -> Atomic.incr t.hits
  | Stale -> Atomic.incr t.stale
  | Miss -> Atomic.incr t.misses);
  outcome

(* A free position for a new key: the free list's head, or else the
   least recently used position, whose entry is evicted.  O(1) either
   way, and the victim is exactly the slot an exact LRU would pick. *)
let claim s =
  if s.s_free >= 0 then begin
    let i = s.s_free in
    s.s_free <- s.s_next.(i);
    (i, 0)
  end
  else begin
    let i = s.s_prev.(s.s_cap) in
    Tbl.remove s.s_tbl s.s_keys.(i);
    unlink s i;
    (i, 1)
  end

let admit t ~instance ~qkey ~version ~k ~len ~cost ~now payload =
  if k < 0 then
    invalid_arg (Printf.sprintf "Cache: an admitted k must be >= 0 (got %d)" k);
  if len < 0 || cost < 0 then
    invalid_arg "Cache: an admitted len and cost must be >= 0";
  if cost < t.min_cost then begin
    Atomic.incr t.bypasses;
    `Bypassed
  end
  else begin
    let key = key ~instance ~qkey in
    let s = stripe_of t key in
    let entry =
      {
        e_version = version;
        e_k = k;
        e_len = len;
        e_cost = cost;
        e_payload = payload;
        e_inserted = now;
        e_last_hit = now;
        e_hits = 0;
      }
    in
    let decision, evicted =
      Mutex.protect s.s_mutex (fun () ->
          match Tbl.find s.s_tbl key with
          | exception Not_found ->
              let i, ev = claim s in
              s.s_keys.(i) <- key;
              push_front s i;
              Tbl.replace s.s_tbl key { sl_entry = entry; sl_pos = i };
              (`Admitted, ev)
          | slot ->
              let e = slot.sl_entry in
              if Version.newer_than e.e_version version then
                (* Never replace a fresher answer with a staler one:
                   a slow query racing a fast update must not roll the
                   cache back. *)
                (`Superseded, 0)
              else if Version.equal e.e_version version && e.e_k >= k then
                (* Same snapshot, already covering at least this rank
                   range — nothing to gain. *)
                (`Superseded, 0)
              else begin
                slot.sl_entry <- entry;
                touch s slot.sl_pos;
                (`Admitted, 0)
              end)
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
        match Tbl.find s.s_tbl key with
        | exception Not_found -> false
        | slot ->
            remove s key slot.sl_pos;
            true)
  in
  if removed then report_evictions t 1;
  removed

let clear t =
  let n = ref 0 in
  Array.iter
    (fun s ->
      Mutex.protect s.s_mutex (fun () ->
          n := !n + Tbl.length s.s_tbl;
          Tbl.reset s.s_tbl;
          reset_links s))
    t.stripes;
  report_evictions t !n

let length t =
  Array.fold_left
    (fun acc s ->
      acc + Mutex.protect s.s_mutex (fun () -> Tbl.length s.s_tbl))
    0 t.stripes

let stripe_walks t =
  Array.map
    (fun s ->
      Mutex.protect s.s_mutex (fun () ->
          (* At most [s_cap] steps, so a broken link cannot loop. *)
          let walk links =
            let rec go i n =
              if i < 0 || i = s.s_cap || n > s.s_cap then n
              else go links.(i) (n + 1)
            in
            go links.(s.s_cap) 0
          in
          (Tbl.length s.s_tbl, walk s.s_next, walk s.s_prev)))
    t.stripes

let prefix a ~k =
  let rec go i acc = if i < 0 then acc else go (i - 1) (a.(i) :: acc) in
  go (min k (Array.length a) - 1) []

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
