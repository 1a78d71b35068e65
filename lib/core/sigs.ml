(** Interfaces of the reduction framework.

    The paper abstracts a reporting problem as a pair (domain [D],
    predicate set [Q]); an input is a set of weighted elements of the
    domain.  A concrete problem supplies {!PROBLEM}; its indexing
    structures supply {!PRIORITIZED} (queries [(q, tau)]), {!MAX}
    (queries [q], i.e. top-1), and {!TOPK} (queries [(q, k)]).

    Both reduction theorems consume {!PRIORITIZED} (and {!MAX}) as
    black boxes and produce a {!TOPK}, which is the whole point: the
    functors in {!Theorem1} and {!Theorem2} never inspect the concrete
    problem beyond these interfaces. *)

(** A reporting problem: elements, predicates, and the satisfaction
    test.  Weights are assumed pairwise distinct (Section 1.1); [id]
    supplies the tie-break that enforces a strict total order even if a
    workload violates the assumption. *)
module type PROBLEM = sig
  type elem

  type query

  val weight : elem -> float
  (** The real-valued priority [w(e)]. *)

  val id : elem -> int
  (** A key unique among the elements of one input set. *)

  val matches : query -> elem -> bool
  (** Whether [e] satisfies the predicate [q] — the oracle definition
      of [q(D)].  Structures must agree with this function. *)

  val pp_elem : Format.formatter -> elem -> unit

  val pp_query : Format.formatter -> query -> unit
end

(** Where a {!PRIORITIZED.visit} hands its matches: [one e] for one
    element, [run arr lo len] for a slice sorted by decreasing weight,
    then id.  After a sink raised out of [run], [handed ()] is the
    number of the slice's elements it took.  The full contract is
    {!Topk_util.Select.sink}'s. *)
type 'a sink = 'a Topk_util.Select.sink = {
  one : 'a -> unit;
  run : 'a array -> int -> int -> unit;
  handed : unit -> int;
}

(** [sink f]: every element to [f], runs unrolled; see
    {!Topk_util.Select.sink}. *)
let sink = Topk_util.Select.sink

(** Outcome of a cost-monitored query (Section 3.2): either the query
    terminated by itself and the full answer is returned, or it was cut
    off after reporting [limit + 1] elements, which certifies that the
    full answer has more than [limit] elements. *)
type 'elem monitored =
  | All of 'elem list        (** complete answer, size [<= limit] *)
  | Truncated of 'elem list  (** a prefix of size [limit + 1] *)

(** A structure for prioritized reporting: query [(q, tau)] returns all
    elements satisfying [q] with weight [>= tau], in
    [Q_pri(n) + O(t/B)] I/Os. *)
module type PRIORITIZED = sig
  module P : PROBLEM

  type t

  val name : string

  val build : ?params:Params.t -> P.elem array -> t
  (** The elements must have pairwise distinct [id]s.  [params] is
      accepted uniformly across {!PRIORITIZED}, {!MAX} and {!TOPK} so
      that reductions and shard sets can thread one configuration
      record through every layer; structures that have no tunables
      ignore it. *)

  val size : t -> int
  (** Number of elements indexed. *)

  val space_words : t -> int
  (** Space in words; divide by [B] for blocks. *)

  val visit : t -> P.query -> tau:float -> P.elem sink -> unit
  (** The reporting primitive: hand every element matching [q] with
      weight [>= tau] to the sink, in no particular order — one at a
      time through [one], or as sorted slices through [run] where the
      structure stores its matches weight-sorted (a [Seg_stab] node's
      [>= tau] prefix).  The sink may raise to stop the visit early;
      the exception propagates, and only the work done so far has been
      charged.  The visit charges its own navigation and a scan of
      every element it handed over, the one the sink raised on
      included: each scan is charged after the sink has seen its
      elements (per element, per node run, or [handed ()] of a run
      the sink stopped in), so the sink itself must charge nothing.
      The reductions stream a visit into
      {!Topk_util.Select.top_k_iter}; {!collect} and {!monitor} derive
      {!query} and {!query_monitored} from it. *)

  val query : t -> P.query -> tau:float -> P.elem list
  (** All elements matching [q] with weight [>= tau], unordered. *)

  val query_monitored :
    t -> P.query -> tau:float -> limit:int -> P.elem monitored
  (** Cost-monitored variant: stops as soon as [limit + 1] elements
      have been reported, charging only the work actually done. *)
end

(** [PRIORITIZED.query] from a visit: [collect (visit t q ~tau)] is
    every element it reports. *)
let collect iter =
  let acc = ref [] in
  iter (sink (fun e -> acc := e :: !acc));
  !acc

(** [PRIORITIZED.query_monitored] from a visit: the visit is stopped
    by raising out of it at its [limit + 1]-th element. *)
let monitor ~limit iter =
  let exception Enough in
  let acc = ref [] and count = ref 0 in
  match
    iter
      (sink (fun e ->
           acc := e :: !acc;
           incr count;
           if !count > limit then raise_notrace Enough))
  with
  | () -> All !acc
  | exception Enough -> Truncated !acc

(** A structure for max reporting: top-k with [k] fixed to 1, in
    [Q_max(n)] I/Os. *)
module type MAX = sig
  module P : PROBLEM

  type t

  val name : string

  val build : ?params:Params.t -> P.elem array -> t
  (** As in {!PRIORITIZED.build}: [params] is accepted uniformly and
      ignored by structures without tunables. *)

  val size : t -> int

  val space_words : t -> int

  val query : t -> P.query -> P.elem option
  (** The element of maximum weight satisfying [q], or [None] if no
      element does. *)
end

(** A structure for top-k reporting: query [(q, k)] returns the [k]
    heaviest elements satisfying [q] — all of them if fewer than [k]
    match — in [Q_top(n) + O(k/B)] I/Os. *)
module type TOPK = sig
  module P : PROBLEM

  type t

  val name : string

  val build : ?params:Params.t -> P.elem array -> t

  val size : t -> int

  val space_words : t -> int

  val query : t -> P.query -> k:int -> P.elem list
  (** Sorted by decreasing weight.  Edge cases are uniform across all
      implementations: [k <= 0] answers [[]] without touching (or
      charging for) the data, and [k] at least the number of matches
      answers every matching element, still sorted. *)
end

(** Prioritized reporting with insertions and deletions, for the
    dynamic version of Theorem 2. *)
module type DYNAMIC_PRIORITIZED = sig
  include PRIORITIZED

  val insert : t -> P.elem -> unit

  val delete : t -> P.elem -> unit
  (** Deleting an element that is not present is a no-op. *)
end

(** Max reporting with insertions and deletions. *)
module type DYNAMIC_MAX = sig
  include MAX

  val insert : t -> P.elem -> unit

  val delete : t -> P.elem -> unit
end

(** Top-k reporting with insertions and deletions. *)
module type DYNAMIC_TOPK = sig
  include TOPK

  val insert : t -> P.elem -> unit

  val delete : t -> P.elem -> unit
end

(** The strict total order on weights used everywhere: weight first,
    [id] as tie-break. *)
module Weight_order (P : PROBLEM) = struct
  let compare e1 e2 =
    match Float.compare (P.weight e1) (P.weight e2) with
    | 0 -> Int.compare (P.id e1) (P.id e2)
    | c -> c

  let compare_desc e1 e2 = compare e2 e1

  let max e1 e2 = if compare e1 e2 >= 0 then e1 else e2

  let sort_desc elems =
    let arr = Array.of_list elems in
    Array.sort compare_desc arr;
    Array.to_list arr

  (** The [k] heaviest of [elems], sorted by decreasing weight. *)
  let top_k k elems = Topk_util.Select.top_k_by ~key:P.weight ~id:P.id k elems

  (** The [k] heaviest of what a visit hands to its sink, with the
      number handed over, or [None] once it hands over [limit + 1]: see
      {!Topk_util.Select.top_k_iter}. *)
  let top_k_iter ?(limit = max_int) k iter =
    Topk_util.Select.top_k_iter ~key:P.weight ~id:P.id ~limit k iter

  (** [top_k_iter] without a limit: the number reported and the [k]
      heaviest of them. *)
  let top_k_count k iter =
    match top_k_iter k iter with Some r -> r | None -> assert false

  (** The [k] heaviest elements of [elems] that match [q], sorted by
      decreasing weight: one scan of [elems], charged whole.  A scan
      keeps every match, so the list and [top_k]'s quickselect beat
      the streaming heap here. *)
  let scan_top_k ~k q elems =
    Topk_em.Stats.charge_scan (Array.length elems);
    let matching = ref [] in
    for i = Array.length elems - 1 downto 0 do
      if P.matches q elems.(i) then matching := elems.(i) :: !matching
    done;
    top_k k !matching
end

(** A structure for (exact) counting: given a predicate, return
    [|q(D)|] without reporting, in [Q_cnt(n)] I/Os.  Section 2 of the
    paper reviews the Rahul–Janardan reduction that combines such a
    structure with a plain reporting structure into a top-k structure
    (implemented in {!Rj_counting}); the footnote there notes the
    reduction needs exact counts. *)
module type COUNTING = sig
  module P : PROBLEM

  type t

  val name : string

  val build : P.elem array -> t

  val size : t -> int

  val space_words : t -> int

  val count : t -> P.query -> int
  (** [|q(D)|]. *)
end
