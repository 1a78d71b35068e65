(** Tuning knobs of the reductions.

    Theorem 1's structure is parameterized by the polynomial-bounded
    constant [lambda] and by an estimate of the black box's query bound
    [Q_pri(n)] (used to set [f = 12 * lambda * B * Q_pri(n)], eq. (9));
    Theorem 2 additionally needs [Q_max(n)] (ladder base
    [K_1 = B * Q_max(n)]) and the ladder ratio [sigma] (1/20 in the
    paper; any value with [(1 + sigma) * 0.91 < 1] preserves the
    expected-cost proof). *)

type t = {
  lambda : float;
      (** the problem is [n^lambda]-polynomially bounded; [>= 1] *)
  q_pri : int -> float;
      (** estimate of [Q_pri(n)] in I/Os under the current model *)
  q_max : int -> float;
      (** estimate of [Q_max(n)] in I/Os *)
  sigma : float;
      (** Theorem 2 ladder growth factor; default 1/20 *)
  coreset_scale : float;
      (** ablation: multiplies [f] and the ladder base; default 1.
          Smaller values shrink core-sets (less space, more fallbacks) *)
  max_sample_retries : int;
      (** rebuild attempts before accepting an oversized sample *)
  seed : int;  (** root of all randomness inside the structure *)
}

val default : t
(** [lambda = 2.], [q_pri = q_max = log2], [sigma = 1/20],
    [coreset_scale = 1.], [max_sample_retries = 20], [seed = 42]. *)

val log2 : int -> float
(** [log2 n] as a float, at least 1. *)

val ln : int -> float
(** Natural log, at least 1. *)

val block_size : unit -> int
(** [B] of the current {!Topk_em.Config}. *)
