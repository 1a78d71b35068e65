(** k-selection, the workhorse the paper invokes as "k-selection [8]":
    from an unordered batch of candidates, extract the [k] largest in
    linear time.  Also order statistics (quickselect and the
    deterministic median-of-medians). *)

val top_k : cmp:('a -> 'a -> int) -> int -> 'a list -> 'a list
(** [top_k ~cmp k xs] is the [k] largest elements of [xs] under [cmp],
    sorted descending.  Returns all of [xs] sorted descending when
    [length xs <= k].  Expected O(|xs| + k log k) via quickselect on an
    internal RNG seeded deterministically (one stream per domain). *)

val top_k_by : key:('a -> float) -> id:('a -> int) -> int -> 'a list -> 'a list
(** [top_k_by ~key ~id k xs] is [top_k ~cmp k xs] for the order [cmp]
    that compares [key] by [Float.compare] (NaN below every number) and
    breaks ties by [id]: the [k] largest, sorted descending.  Each
    element's key and id are read once into unboxed arrays; selection
    is a median-of-3 quickselect with no RNG followed by a sort of the
    [k] prefix, O(|xs| + k log k) expected and O(|xs| log |xs|) in the
    worst case.  Elements equal on both key and id are interchangeable:
    which of them is kept is unspecified. *)

(** {1 Streaming selection} *)

(** Where a visit hands its matches: one at a time, or as a run.

    - [one e] takes one element.
    - [run arr lo len] takes the slice [arr.(lo) .. arr.(lo + len - 1)],
      which must be sorted in decreasing order of weight
      ([Float.compare], NaN below every number), then of id: the order
      {!top_k_by} answers in.  The consumer may keep the slice and
      read it after the call, until it has answered (the selector
      merges recorded runs once the visit returns), so the structure
      must not change it meanwhile; the consumer never writes it.

    Either entry point may raise to stop the visit.  After a [run]
    raised, [handed ()] is the number of the slice's elements it took,
    the one it stopped on included (1 to [len]): the visit charges
    exactly those.  [handed ()] is meaningless otherwise. *)
type 'a sink = {
  one : 'a -> unit;
  run : 'a array -> int -> int -> unit;
  handed : unit -> int;
}

val sink : ('a -> unit) -> 'a sink
(** [sink f] hands every element to [f]: [one] is [f], and [run]
    unrolls its slice into [f] calls, recording [i + 1] as [handed]
    before the call on the slice's element [i], so a raise out of [f]
    leaves it right.  Wrappers that filter or remap a visit's elements
    build their inner sink this way. *)

val top_k_iter :
  key:('a -> float) ->
  id:('a -> int) ->
  limit:int ->
  int ->
  ('a sink -> unit) ->
  (int * 'a list) option
(** [top_k_iter ~key ~id ~limit k iter] counts what [iter] hands to its
    sink and keeps the [k] heaviest.  If [iter] hands over more than
    [limit] elements, the sink raises out of it on element [limit + 1]
    (inside a run, [handed ()] then counts up to that element) and the
    answer is [None]; that is where a cost-monitored query stops.  Otherwise the
    answer is [Some (m, top)], with [m] the number of elements handed
    over and [top] equal to [top_k_by ~key ~id k] of them: the [k]
    heaviest, sorted descending.

    A single ([one]) enters a bounded [k]-slot heap only if it beats the
    lightest of the current [k], written once into unboxed per-domain
    slots.  A run is counted in O(1) and recorded; the answer is a
    k-way merge of the recorded runs' heads and the sorted singles.
    With [s] singles and [r] runs, O(s log k + r + k log r) time.
    Exceptions other than the stop, raised by [iter] or the callbacks,
    propagate. *)

val quickselect : cmp:('a -> 'a -> int) -> 'a array -> int -> 'a
(** [quickselect ~cmp arr i] is the element of rank [i] (0-based, from
    the smallest under [cmp]); expected linear time.  The array is
    permuted in place.  @raise Invalid_argument if [i] is out of
    bounds. *)

val median_of_medians : cmp:('a -> 'a -> int) -> 'a array -> int -> 'a
(** Deterministic worst-case linear selection of rank [i] (0-based,
    from the smallest).  The array is permuted in place. *)

val nth_largest : cmp:('a -> 'a -> int) -> 'a array -> int -> 'a
(** [nth_largest ~cmp arr r] is the element of weight rank [r]
    (1-based, from the largest), expected linear time; the array is
    permuted in place. *)
