module Clock = Topk_util.Clock
module Sigs = Topk_core.Sigs
module Stats = Topk_em.Stats
module Tr = Topk_trace.Trace

type info = {
  name : string;
  structure : string;
  size : int;
  space_words : int;
}

(* Write capabilities an updatable instance (one wrapped by
   [Topk_ingest]) attaches to its handle.  Static instances carry
   none. *)
type 'e update_ops = {
  u_insert : 'e -> unit;
  u_delete : 'e -> unit;
  u_freeze : unit -> unit;
}

(* The typed side of an instance.  The closure hides the structure's
   existential type: requests erase to closures, the registry erases to
   [info], and the two meet only here, where the types are known. *)
type ('q, 'e) handle = {
  h_info : info;
  h_exec :
    'q ->
    k:int ->
    budget:int option ->
    deadline:float option ->
    'e list * Response.status * Stats.snapshot * int;
  h_update : 'e update_ops option;
}

type t = {
  mutex : Mutex.t;
  mutable entries : info list;  (* registration order, newest first *)
}

let create () = { mutex = Mutex.create (); entries = [] }

(* Staged execution under a cost budget and/or deadline.

   An unconstrained query runs the structure's top-k directly.  A
   constrained query runs rounds of exact top-k' queries for doubling
   k' — each round's answer is the exact set of the k' heaviest
   matching elements, i.e. a *certified prefix* of the true top-k
   (Section 3.2's cost-monitoring idea lifted from prioritized
   reporting to the serving layer).  Between rounds we compare the
   I/Os charged so far against the budget and the wall clock against
   the deadline; on violation the freshest prefix is returned, flagged,
   instead of letting an expensive query stall its worker.  Doubling
   keeps the total cost within a constant factor of the final round. *)
let exec (type s q e)
    (module T : Sigs.TOPK
      with type t = s and type P.query = q and type P.elem = e)
    (structure : s) (q : q) ~k ~budget ~deadline =
  (* Bracket the query with [round_carry] so its scan cost is charged
     in full ([ceil (t / B)]) on this domain: per-query costs are then
     independent of scheduling, and per-domain totals are exactly the
     sum of the costs of the queries each worker ran. *)
  Stats.round_carry ();
  let before = Stats.snapshot () in
  let cost () =
    Stats.round_carry ();
    Stats.diff (Stats.snapshot ()) before
  in
  match (budget, deadline) with
  | None, None ->
      let answers = T.query structure q ~k in
      (answers, Response.Complete, cost (), 1)
  | _ ->
      let over_budget () =
        match budget with
        | None -> false
        | Some b -> (Stats.snapshot ()).Stats.ios - before.Stats.ios >= b
      in
      let over_deadline () =
        match deadline with None -> false | Some d -> Clock.now () > d
      in
      if over_deadline () then ([], Response.Cutoff_deadline, cost (), 0)
      else if (match budget with Some b -> b <= 0 | None -> false) then
        ([], Response.Cutoff_budget, cost (), 0)
      else begin
        let rec round k' rounds =
          let answers =
            Tr.with_span "exec.round"
              ~attrs:[ ("k'", Tr.Int k'); ("round", Tr.Int rounds) ]
              (fun () -> T.query structure q ~k:k')
          in
          if k' >= k || List.length answers < k' then
            (answers, Response.Complete, rounds)
          else if over_budget () then begin
            Tr.event "exec.cutoff" ~attrs:[ ("by", Tr.Str "budget") ];
            (answers, Response.Cutoff_budget, rounds)
          end
          else if over_deadline () then begin
            Tr.event "exec.cutoff" ~attrs:[ ("by", Tr.Str "deadline") ];
            (answers, Response.Cutoff_deadline, rounds)
          end
          else round (min k (2 * k')) (rounds + 1)
        in
        let answers, status, rounds = round 1 1 in
        (answers, status, cost (), rounds)
      end

let register (type s q e) ?update t ~name
    (module T : Sigs.TOPK
      with type t = s and type P.query = q and type P.elem = e)
    (structure : s) : (q, e) handle =
  let info =
    {
      name;
      structure = T.name;
      size = T.size structure;
      space_words = T.space_words structure;
    }
  in
  Mutex.protect t.mutex (fun () ->
      (match List.find_opt (fun i -> String.equal i.name name) t.entries with
      | Some prev ->
          invalid_arg
            (Printf.sprintf
               "Registry.register: duplicate instance %S (already registered \
                as %s, n=%d)"
               name prev.structure prev.size)
      | None -> ());
      t.entries <- info :: t.entries);
  {
    h_info = info;
    h_exec =
      (fun q ~k ~budget ~deadline ->
        exec (module T) structure q ~k ~budget ~deadline);
    h_update = update;
  }

let info h = h.h_info

let h_exec h = h.h_exec

let updatable h = Option.is_some h.h_update

let update_ops h op =
  match h.h_update with
  | Some ops -> ops
  | None ->
      invalid_arg
        (Printf.sprintf "Registry.%s: instance %S is static (registered \
                         without update support)"
           op h.h_info.name)

let insert h e = (update_ops h "insert").u_insert e

let delete h e = (update_ops h "delete").u_delete e

let freeze h = (update_ops h "freeze").u_freeze ()

let list t = Mutex.protect t.mutex (fun () -> List.rev t.entries)

(* Edit distance for the miss suggestions (plain Levenshtein; names
   are short, the registry is small, and misses are cold paths). *)
let edit_distance a b =
  let la = String.length a and lb = String.length b in
  let prev = Array.init (lb + 1) Fun.id in
  let cur = Array.make (lb + 1) 0 in
  for i = 1 to la do
    cur.(0) <- i;
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      cur.(j) <-
        min (min (cur.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
    done;
    Array.blit cur 0 prev 0 (lb + 1)
  done;
  prev.(lb)

let resolve t name =
  match
    Mutex.protect t.mutex (fun () ->
        List.find_opt (fun i -> String.equal i.name name) t.entries)
  with
  | Some i -> Ok i
  | None ->
      let names = List.map (fun i -> i.name) (list t) in
      let suggestions =
        names
        |> List.map (fun n -> (edit_distance name n, n))
        |> List.sort compare
        |> List.map snd
      in
      Error (Error.Not_found suggestions)

let mem t name = Result.is_ok (resolve t name)

let pp_info ppf i =
  Format.fprintf ppf "@[<h>%s: %s, n=%d, %d words@]" i.name i.structure i.size
    i.space_words
