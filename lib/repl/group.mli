(** A replication group: one primary plus read replicas over a
    {!Transport}, glued together by {!Log_ship}, {!Replica} and
    {!Router}.

    The group owns the whole simulated deployment — every node and the
    fabric between them — and advances it with explicit {!step}s of
    the virtual clock, so any schedule (message losses, partitions, a
    primary crash mid-stream) is a deterministic function of the
    transport plan's seed.

    {b Consistency law} (swept by [`topk repl-bench`]): at every
    instant, each node's surviving set equals the from-scratch oracle
    over the prefix [1 .. applied] of the primary timeline's updates;
    after {!fail_primary}, the new timeline's prefix contains every
    {!Synced} write (quorum-acked writes survive failover). *)

module Make (T : Topk_core.Sigs.TOPK) : sig
  module R : module type of Replica.Make (T)
  module I = R.I

  type t

  val create :
    ?params:Topk_core.Params.t ->
    ?buffer_cap:int ->
    ?fanout:int ->
    ?retain:int ->
    ?window:int ->
    ?plan:Transport.plan ->
    ?metrics:Topk_service.Metrics.t ->
    ?quorum:int ->
    ?max_pump:int ->
    name:string ->
    replicas:int ->
    I.P.elem array ->
    t
  (** A group of [replicas + 1] nodes over the shared base run; node 0
      starts as primary.  [quorum] is the number of {e replica} acks a
      write waits for (default a group majority, [(replicas+1)/2];
      [0] makes writes asynchronous); [max_pump] bounds the ticks a
      write pumps before reporting {!Lagged}; [retain]/[window]
      parameterize {!Log_ship} (at its default rto); [plan]
      the {!Transport} faults.  [metrics] receives the [repl_*]
      counters and the [replica_lag] gauge.

      The group caches nothing.  For cached reads, attach {!read} to a
      {!Topk_service.Client} as an endpoint with a (term, head)
      sampler, [fun () -> Topk_cache.Version.make ~term:(term g)
      ~seq:(head g)]: an entry is then tagged with the answering
      node's applied prefix and the group's failover term, so
      {!fail_primary}'s term bump fences every pre-failover entry.
      @raise Invalid_argument on a bad parameter. *)

  (** {1 Writes} *)

  type write_outcome =
    | Synced of int  (** seq; quorum replicas hold it — survives failover *)
    | Lagged of int
        (** seq; applied on the primary but the quorum did not confirm
            within [max_pump] ticks (partition, loss) — may be lost if
            the primary dies now *)

  val write_seq : write_outcome -> int
  val synced : write_outcome -> bool

  val insert : t -> I.P.elem -> write_outcome
  val delete : t -> I.P.elem -> write_outcome

  (** {1 Reads} *)

  val read :
    ?consistency:Topk_cache.Consistency.t ->
    t ->
    I.P.query ->
    k:int ->
    I.P.elem Topk_service.Response.t option
  (** Route the query per {!Router.select} under the [consistency]
      level (default [Any]) and answer it on the chosen node's pinned
      snapshot.  The response's
      {!Topk_service.Response.seq_token} carries the answering
      snapshot's newest applied seq — pass it back as
      [At_least seq_token] for read-your-writes.  [None] when no live
      node satisfies the level.
      @raise Invalid_argument on a negative token/lag. *)

  (** {1 Time} *)

  val step : t -> unit
  (** One quantum: ship, advance the fabric one tick, deliver, export
      metrics. *)

  val pump : t -> int -> unit

  val settle : ?max_ticks:int -> t -> bool
  (** Pump (default at most 2000 ticks) until every live replica has
      applied the head and the fabric is idle; [false] on budget
      exhaustion (e.g. an unhealed partition). *)

  (** {1 Faults and failover} *)

  val partition : t -> int -> unit
  (** Latch the node off the fabric (both directions, in-flight
      dropped). *)

  val rejoin : t -> int -> unit

  val fail_primary : t -> int
  (** Kill the primary (a latched partition) and deterministically
      promote the live replica with the highest applied prefix (lowest
      id on ties): bump the term, attach a shipper to its outlog, and
      let survivors resync — cumulative acks snap the cursors forward,
      and anyone behind the new outlog's floor is caught up by
      snapshot install.  Returns the new primary's id.
      @raise Invalid_argument when no live replica remains. *)

  (** {1 Introspection} *)

  val name : t -> string
  val transport : t -> Transport.t
  val primary : t -> int
  val term : t -> int
  val nodes : t -> int
  val node : t -> int -> R.t
  val alive : t -> int -> bool
  val head : t -> int
  (** The primary's applied seq — the newest write in the timeline. *)

  val applied : t -> int -> int
  val quorum : t -> int
  val lag : t -> int
  (** The worst live replica's lag behind {!head}. *)
end
