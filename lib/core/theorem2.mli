(** Theorem 2: the expected-cost reduction from top-k to prioritized
    plus max reporting (Section 4 of the paper).

    Given a prioritized structure ([S_pri], [Q_pri + O(t/B)]) and a max
    structure ([S_max], [Q_max]) with [S_max(n) = O(n^2/B)] and
    geometrically converging, the functor builds a top-k structure with
    {e no performance degradation in expectation}:

    - expected space [S_top = O(S_pri + S_max(6n / (B Q_max)))] (eq. 5);
    - expected query [Q_top + O(k/B)] with
      [Q_top = O(Q_pri + Q_max)] (eq. 6).

    Mechanics, mirroring Section 4: fix [sigma = 1/20] and
    [K_i = B . Q_max(n) . (1 + sigma)^(i-1)]; for each [i] up to the
    largest with [K_i <= n/4], store a (1/K_i)-sample [R_i] of [D] with
    a max structure on it.  A query with [k <= K_i] runs {e rounds}
    from the smallest adequate rung [j]:

    + a cost-monitored prioritized query with [tau = -inf] and limit
      [4 K_j] answers outright when [|q(D)| <= 4 K_j];
    + otherwise the max element [e] of [q(R_j)] is, by Lemma 3, a
      weight threshold of rank in [(K_j, 4 K_j]] within [q(D)] with
      probability >= 0.09;
    + a cost-monitored prioritized query with [tau = w(e)] fetches the
      candidates; the round {e succeeds} when it self-terminates with
      more than [K_j >= k] elements, and the answer is k-selected.

    A failed round escalates to [j + 1]; past the last rung the query
    scans [D], costing [O(n/B) = O(K_h/B) = O(k/B)].  Expected round
    count is O(1) because each fails with probability <= 0.91 and
    [(1 + sigma) . 0.91 < 1] keeps the geometric cost sum bounded. *)

(** {1 The sample ladder and its round walk}

    Shared by {!Make} and {!Theorem2_dynamic.Make}: the two differ
    only in how they build and maintain the ladder. *)

(** Rung [i]: a max structure on the (1/K_i)-sample [R_i]. *)
type 'm rung = {
  max_structure : 'm;
  ki : int;      (** [ceil K_i], at least 2 *)
  rate : float;  (** [1 / K_i], the sampling rate of [R_i] *)
}

(** Round counters of one structure, bumped by {!Walk.query}. *)
type rounds = { mutable run : int; mutable failed : int }

val ladder : Params.t -> int -> sample:(float -> 'm) -> 'm rung array
(** [ladder params n ~sample] is the rung geometry for [n] elements:
    [K_1 = max 1 (coreset_scale . B . Q_max(n))], growing by
    [(1 + sigma)] while [K_i <= n/4].  [sample K_i] builds rung [i]'s
    max structure; it is called once per rung, smallest first. *)

module Walk (S : Sigs.PRIORITIZED) (M : Sigs.MAX with module P = S.P) : sig
  val query :
    rounds ->
    M.t rung array ->
    k1:int ->
    S.t ->
    scan:(S.P.query -> k:int -> S.P.elem list) ->
    S.P.query ->
    k:int ->
    S.P.elem list
  (** [query rounds ladder ~k1 pri ~scan q ~k] runs the rounds above
      from the smallest rung with [K_j >= max k k1], escalating on
      failure; past the ladder (or when it is empty) it answers
      [scan q ~k], the caller's charged scan of [D].  Traced as a
      ["t2.query"] span with one ["t2.round"] child per round. *)
end

(** {1 The static structure} *)

module Make (S : Sigs.PRIORITIZED) (M : Sigs.MAX with module P = S.P) : sig
  include Sigs.TOPK with module P = S.P

  type info = {
    rungs : int;           (** ladder length [h] *)
    k1 : int;              (** [K_1 = B . Q_max(n)] *)
    sample_words : int;    (** words across all [R_i] max structures *)
    pri_words : int;       (** words of the prioritized structure on D *)
  }

  val info : t -> info

  val rounds_run : t -> int
  (** Total rounds executed across all queries so far. *)

  val rounds_failed : t -> int
  (** Rounds that failed (Step 4); the ratio to {!rounds_run} validates
      the [<= 0.91] failure bound empirically. *)
end
