(** Binary heap over an explicit comparison (min-heap with respect to
    [cmp]; pass a flipped [cmp] for a max-heap). *)

type 'a t

val create : cmp:('a -> 'a -> int) -> unit -> 'a t

val of_array : cmp:('a -> 'a -> int) -> 'a array -> 'a t
(** Heapify in O(n). *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val peek : 'a t -> 'a option
(** Minimum under [cmp], if any. *)

val pop : 'a t -> 'a option
(** Remove and return the minimum under [cmp]. *)

val pop_exn : 'a t -> 'a
(** @raise Invalid_argument on an empty heap. *)
