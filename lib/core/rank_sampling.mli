(** Rank sampling — Lemmas 1 and 3 of the paper.

    Lemma 1: for a p-sample [R] of an n-set [S], if [k * p >= 3 ln(3 /
    delta)] and [n >= 4k], then with probability [>= 1 - delta] both
    [|R| > 2kp] and the element of rank [ceil (2kp)] in [R] has rank
    between [k] and [4k] in [S].

    Lemma 3: for a (1/K)-sample [R] of [S] with [n >= 4K >= 8], with
    probability [>= 0.09] both [R] is non-empty and the largest element
    of [R] has rank in [S] in [(K, 4K]].

    These drive the core-set construction (Theorem 1) and the round
    algorithm (Theorem 2); the checkers below are used by tests and by
    experiments E1/E3 to validate the bounds empirically. *)

val min_p : k:int -> delta:float -> float
(** The smallest sampling probability satisfying Lemma 1's working
    condition [k * p >= 3 ln(3 / delta)], clamped to [<= 1]. *)

type outcome =
  | Ok_rank          (** both bullets of the lemma hold *)
  | Too_few_samples  (** first bullet failed ([|R|] too small / empty) *)
  | Rank_too_low     (** witnessed rank [< k] (Lemma 1) / [<= K] (3) *)
  | Rank_too_high    (** witnessed rank [> 4k] resp. [> 4K] *)

val lemma1_trial :
  Topk_util.Rng.t -> cmp:('a -> 'a -> int) -> k:int -> p:float ->
  'a array -> outcome
(** Draw one p-sample of the array and test Lemma 1's two bullets for
    the given [k].  [cmp] orders elements ascending; ranks count from
    the greatest.  The array must hold distinct elements. *)

val lemma3_trial :
  Topk_util.Rng.t -> cmp:('a -> 'a -> int) -> kk:float -> 'a array ->
  outcome
(** Draw one (1/K)-sample and test Lemma 3's two bullets. *)

val rank_of : cmp:('a -> 'a -> int) -> 'a array -> 'a -> int
(** 1-based rank from the greatest under [cmp]; O(n) scan. *)
