(** Dyadic prefix decomposition — the "canonical set" machinery of
    Sections 5.4 and 5.5.

    Several prioritized structures in the paper sort the input by
    weight (descending) and hang a reporting structure over each
    canonical subset of a balanced search tree on weights; a query
    threshold [tau] then selects a {e prefix} of the weight order,
    which those trees cover with [O(log n)] canonical nodes.

    This module implements the equivalent flat form: one sub-structure
    per {e aligned dyadic block} [[o, o + 2^l)] (offset divisible by
    the size), so any prefix [[0, m)] is the disjoint union of at most
    [log2 n + 1] stored blocks, read off the binary digits of [m].
    Every element lives in at most [log2 n + 1] blocks, so if the
    sub-structure uses linear space the whole decomposition uses
    [O(n log n)]. *)

type 's t

val build : build:(int -> int -> 's) -> n:int -> 's t
(** [build ~build ~n] stores a sub-structure [build o len] for every
    aligned dyadic block [[o, o + len)] inside [[0, n)] (partial
    trailing blocks included, so every prefix is coverable). *)

val length : 's t -> int
(** The [n] it was built for. *)

val query_prefix : 's t -> int -> 's list
(** [query_prefix t m] is the [O(log n)] sub-structures whose blocks
    partition [[0, min m n)], charged one I/O each for the lookup. *)

val fold_all : 's t -> init:'acc -> f:('acc -> 's -> 'acc) -> 'acc
