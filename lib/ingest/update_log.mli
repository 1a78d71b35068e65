(** The bounded in-memory update buffer: sequence-stamped
    [Insert]/[Delete] operations in arrival order.

    The log is the mutable front of the ingestion pipeline
    ({!Ingest}): writers append under the owner's mutex until the log
    is full, at which point the owner seals the prefix into an
    immutable level-0 run and {!reset}s the log.  The replay format is
    deterministic — operations are totally ordered by their [seq]
    stamp, and {!replay} ("latest op per id wins") is the single
    semantics shared by readers, the sealer, and oracles.

    Concurrency contract: all mutation happens under the owner's lock.
    A reader who captured [(arr, len)] from {!view} under that lock may
    scan the prefix lock-free afterwards — later appends only write
    past [len], and the backing array is never grown in place (a
    {!reset} detaches it wholesale). *)

type 'e op = Insert of 'e | Delete of 'e  (** [Delete] is a tombstone. *)

type 'e entry = { seq : int; op : 'e op }

type 'e t

val create : cap:int -> 'e t
(** An empty log sealing at [cap] entries.
    @raise Invalid_argument if [cap < 1]. *)

val cap : 'e t -> int

val length : 'e t -> int

val is_empty : 'e t -> bool

val is_full : 'e t -> bool

val append : 'e t -> 'e entry -> unit
(** @raise Invalid_argument when full — the owner must seal first. *)

val view : 'e t -> 'e entry array * int
(** The backing array and current length.  Capture both under the
    owner's lock; the prefix is then immutable. *)

val reset : 'e t -> unit
(** Detach the backing array (pinned views keep theirs) and start an
    empty log. *)

val replay : id:('e -> int) -> 'e entry array -> int -> (int, 'e option) Hashtbl.t
(** [replay ~id arr len]: the latest op per id over the prefix —
    [Some e] for a live (re)insert, [None] for a delete.  The caller
    charges the EM scan. *)

val pp : (Format.formatter -> 'e -> unit) -> Format.formatter -> 'e t -> unit
(** Deterministic textual replay form: [+e@seq] / [-e@seq] per entry. *)
