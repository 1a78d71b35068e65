(** Parameters of the external-memory (EM) model of Aggarwal and Vitter,
    as fixed in Section 1.1 of the paper: a disk formatted into blocks
    of [b] words each.  Every bound is charged analytically in blocks
    (see {!Stats}), so the memory size [M] of the model never enters a
    cost and is not represented.  Setting [b] to a small constant
    recovers the RAM model, in which every structure of this library
    also works. *)

type mode =
  | Ram  (** RAM model: [b] is a small constant, I/Os are word probes. *)
  | Em   (** External memory: costs are counted in blocks of [b] words. *)

type t = private {
  mode : mode;
  b : int;  (** block size in words; the paper assumes [b >= 64] in EM *)
}

val ram : t
(** The RAM model: [b = 1]. *)

val em : b:int -> unit -> t
(** [em ~b ()] is the EM model with block size [b] (must be [>= 2]).
    Raises [Invalid_argument] if [b < 2]. *)

val default : t
(** EM with [b = 64], the paper's minimum block size. *)

val current : unit -> t
(** The model used by cost accounting right now (initially [default]). *)

val set : t -> unit
(** Install a model globally.  Affects subsequent {!Stats} charging. *)

val with_model : t -> (unit -> 'a) -> 'a
(** [with_model c f] runs [f] under model [c], restoring the previous
    model afterwards, also on exceptions. *)

val blocks_of_words : t -> int -> int
(** [blocks_of_words c w] is the number of blocks occupied by [w] words,
    i.e. [ceil (w / b)], and [0] for [w <= 0]. *)

val pp : Format.formatter -> t -> unit
