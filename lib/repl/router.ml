module Consistency = Topk_cache.Consistency

(* Read routing: deterministic replica selection under one
   {!Consistency.t} level.  Pure bookkeeping over (id, applied) pairs
   so it is testable without a group around it. *)

type candidate = {
  c_id : int;
  c_applied : int;
  c_alive : bool;
  c_primary : bool;
}

type t = { mutable cursor : int }

let create () = { cursor = 0 }

(* A replica is eligible when it is alive and its applied prefix
   satisfies the consistency level: [At_least s] is the caller's
   read-your-writes token, [Max_lag l] bounds its distance behind the
   head, [Pinned p] demands exactly the snapshot [p] (a node that has
   already applied past [p] answers over a newer state and cannot
   serve the pin).  Eligible replicas are rotated round-robin; the
   primary — never stale by definition — is the fallback, so a read
   with a token the replicas cannot honor yet still answers.  [None]
   only when even the primary cannot satisfy the level (a token from a
   future the group has not seen — a caller bug or a deposed primary's
   unreplicated write — or an unpinnable [Pinned]). *)
let select t ~head ?(consistency = Consistency.Any) cands =
  Consistency.validate consistency;
  let ok c =
    c.c_alive
    &&
    match consistency with
    | Consistency.Any -> true
    | Consistency.At_least s -> c.c_applied >= s
    | Consistency.Pinned p -> c.c_applied = p
    | Consistency.Max_lag l -> head - c.c_applied <= l
  in
  match List.filter (fun c -> ok c && not c.c_primary) cands with
  | [] ->
      List.find_opt (fun c -> c.c_primary && ok c) cands
      |> Option.map (fun c -> c.c_id)
  | eligible ->
      let i = t.cursor mod List.length eligible in
      t.cursor <- t.cursor + 1;
      Some (List.nth eligible i).c_id
