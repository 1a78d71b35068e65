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

val top_k_iter :
  key:('a -> float) ->
  id:('a -> int) ->
  limit:int ->
  int ->
  (('a -> unit) -> unit) ->
  (int * 'a list) option
(** [top_k_iter ~key ~id ~limit k iter] streams the elements [iter]
    hands to its callback through a count and a bounded [k]-slot heap.
    If [iter] reports more than [limit] elements, the callback raises
    out of it on element [limit + 1] and the answer is [None]; that is
    where a cost-monitored query stops.  Otherwise the answer is
    [Some (m, top)], with [m] the number of elements reported and [top]
    equal to [top_k_by ~key ~id k] of them: the [k] heaviest, sorted
    descending.  Only elements that beat the lightest of the current
    [k] are admitted, each written once into unboxed per-domain slots;
    O(m log k) time.  Exceptions other than the stop, raised by [iter]
    or the callbacks, propagate. *)

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
