(** Epoch-consistent certified answer cache.

    Memoizes the answer lists of completed top-k queries, keyed by
    [(instance name, canonical query key)] and tagged with the
    {!Version} they were computed at.  The paper keeps core-sets
    alive because recomputing a top-k answer is the expensive part;
    the same economics apply at serving time, and the ingest/
    replication layers already version every snapshot — so a cached
    answer is never "invalidated", it simply stops being {e servable}
    under the reader's {!Consistency} rule once the live version
    moves on (or the failover term bumps).

    Storage is striped: a key hashes to one of [stripes] independent
    mutex-protected hash tables, each with exact-LRU eviction in O(1),
    so lookups of different hot keys never
    contend.

    The cache stores answers of one payload type ['v] (an ['e array]
    in this system, served through {!prefix}); erasure across
    differently-typed instances is the caller's job (see
    {!Topk_service.Client}). *)

type 'v t

type 'v entry = {
  e_version : Version.t;  (** snapshot the answer was computed at *)
  e_k : int;  (** the k it was computed for *)
  e_len : int;  (** answers present; [< e_k] means the query exhausted
                    the matching set, so every rank is covered *)
  e_cost : int;  (** charged I/Os the original computation paid *)
  e_payload : 'v;
  e_inserted : float;
  mutable e_last_hit : float;
  mutable e_hits : int;
}

val create :
  ?stripes:int ->
  ?capacity:int ->
  ?min_cost:int ->
  ?on_evict:(unit -> unit) ->
  unit ->
  'v t
(** [stripes] (default 8, rounded up to a power of two, and lowered
    to the largest power of two not above [capacity]) independent
    lock domains; [capacity] (default 4096) total entries, split
    across the stripes as evenly as it divides (the first
    [capacity mod stripes] stripes hold one more), so the cache holds
    exactly [capacity] when full (its hash buckets and recency links,
    four words per entry, are allocated up front); [min_cost]
    (default 1) the admission threshold — an answer whose charged I/O
    cost is below it is not worth caching and is {!admit}ted as
    [`Bypassed].  [on_evict] is called once per evicted entry,
    outside any stripe lock; it must not call back into the cache's
    write path.
    @raise Invalid_argument on out-of-range parameters. *)

type 'v outcome =
  | Hit of 'v entry
      (** Servable: slice the payload to the requested [k].  The
          answer is exact at [e_version]; report that as the
          response's seq token. *)
  | Stale
      (** Present, but its version fails the reader's consistency
          rule — recompute rather than serve a wrong-era answer. *)
  | Miss

val find :
  'v t ->
  instance:string ->
  qkey:string ->
  current:Version.t ->
  ?consistency:Consistency.t ->
  k:int ->
  now:float ->
  unit ->
  'v outcome
(** Consult the cache.  [current] is the live version of the instance
    (its latest op seq and failover term); [consistency] (default
    {!Consistency.Any}) decides which entry versions may serve — see
    {!Consistency.admits}.  A [Hit] requires the stored entry to
    cover rank [k] (prefix serving).  [now] stamps a hit's
    [e_last_hit].
    @raise Invalid_argument on an invalid consistency token. *)

val admit :
  'v t ->
  instance:string ->
  qkey:string ->
  version:Version.t ->
  k:int ->
  len:int ->
  cost:int ->
  now:float ->
  'v ->
  [ `Admitted | `Bypassed | `Superseded ]
(** Offer a completed answer.  [`Bypassed]: its [cost] is below the
    admission threshold.  [`Superseded]: an entry at a newer version
    (or the same version with [k] at least as large) is already
    present — a slow query racing a fast update never rolls the cache
    back.  Only {e complete} answers may be offered: a cutoff prefix
    is exact for the ranks it covers but [e_len < e_k] would wrongly
    claim exhaustion.
    @raise Invalid_argument on negative [k], [len] or [cost]. *)

val invalidate : 'v t -> instance:string -> qkey:string -> bool
(** Drop one key (true if present).  Rarely needed — version tagging
    invalidates implicitly — but useful for tests and manual flushes. *)

val clear : 'v t -> unit

val length : 'v t -> int

val min_cost : 'v t -> int

type stats = {
  st_hits : int;
  st_misses : int;
  st_stale : int;  (** lookups refused by the consistency rule *)
  st_admits : int;
  st_bypasses : int;  (** admissions refused below the cost threshold *)
  st_evictions : int;  (** LRU evictions plus invalidated and cleared entries *)
  st_entries : int;
}

val stats : 'v t -> stats

val hit_rate : 'v t -> float
(** Hits over all lookups (stale lookups count as misses). *)

val prefix : 'e array -> k:int -> 'e list
(** [prefix a ~k] is the first [min k (Array.length a)] elements of
    [a], in order: the answer a {!Hit} on an array payload serves at
    the requested [k]. *)

val stripe_walks : 'v t -> (int * int * int) array
(** For each stripe, taken under its lock: the number of entries in
    its table and the lengths of its recency list walked from the
    most and from the least recently used end.  The three agree on a
    coherent stripe; tests use this to check the links. *)
