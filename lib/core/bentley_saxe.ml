module Stats = Topk_em.Stats

module Buckets (P : Sigs.PROBLEM) = struct
  module W = Sigs.Weight_order (P)

  type 'b slot = {
    data : 'b;
    elems : P.elem array;  (* what it was built from *)
  }

  type 'b t = {
    build_bucket : P.elem array -> 'b;
    mutable slots : 'b slot option array;  (* slot i holds <= 2^i elems *)
    dead : (int, unit) Hashtbl.t;
    mutable live_count : int;
    mutable rebuild_count : int;
  }

  let is_dead t e = Hashtbl.mem t.dead (P.id e)

  let make_slot t part = Some { data = t.build_bucket part; elems = part }

  (* Distribute [elems] over buckets by the binary representation of
     the count, leaving lower slots empty for cheap insertions. *)
  let fill t elems =
    let n = Array.length elems in
    let slots = ref 1 in
    while 1 lsl !slots <= n do incr slots done;
    t.slots <- Array.make (max 1 !slots) None;
    let offset = ref 0 in
    for i = !slots - 1 downto 0 do
      let cap = 1 lsl i in
      if n - !offset >= cap then begin
        t.slots.(i) <- make_slot t (Array.sub elems !offset cap);
        offset := !offset + cap
      end
    done

  let create build_bucket elems =
    let t =
      {
        build_bucket;
        slots = [| None |];
        dead = Hashtbl.create 64;
        live_count = Array.length elems;
        rebuild_count = 0;
      }
    in
    fill t (Array.copy elems);
    t

  let live_elements t =
    let acc = ref [] in
    Array.iter
      (function
        | None -> ()
        | Some s ->
            Array.iter
              (fun e -> if not (is_dead t e) then acc := e :: !acc)
              s.elems)
      t.slots;
    Array.of_list !acc

  (* A global rebuild from [elems], which holds no dead element. *)
  let rebuild t elems =
    Hashtbl.reset t.dead;
    t.rebuild_count <- t.rebuild_count + 1;
    t.live_count <- Array.length elems;
    fill t elems

  let insert_fresh t e =
    (* Find the first empty slot; everything below merges into it. *)
    let slot = ref 0 in
    let n_slots = Array.length t.slots in
    while !slot < n_slots && t.slots.(!slot) <> None do incr slot done;
    if !slot >= n_slots then begin
      let grown = Array.make (n_slots + 1) None in
      Array.blit t.slots 0 grown 0 n_slots;
      t.slots <- grown
    end;
    let merged = ref [ e ] in
    for i = 0 to !slot - 1 do
      (match t.slots.(i) with
       | Some s ->
           Array.iter
             (fun x ->
               if is_dead t x then Hashtbl.remove t.dead (P.id x)
               else merged := x :: !merged)
             s.elems
       | None -> ());
      t.slots.(i) <- None
    done;
    (* Tombstone purging during the merge may have shrunk the batch
       below this slot's capacity; that only helps. *)
    t.slots.(!slot) <- make_slot t (Array.of_list !merged);
    t.live_count <- t.live_count + 1

  let insert t e =
    if is_dead t e then
      (* Re-insert of a tombstoned id: the stale copy is still baked
         into some bucket, so merely dropping the tombstone would
         resurrect it alongside the new element, and keeping it would
         hide the new element.  Rebuild from the surviving set (which
         excludes the stale copy) plus [e]. *)
      rebuild t (Array.append (live_elements t) [| e |])
    else insert_fresh t e

  let delete t e =
    if not (is_dead t e) then begin
      Hashtbl.replace t.dead (P.id e) ();
      t.live_count <- t.live_count - 1;
      if Hashtbl.length t.dead > max 8 t.live_count then
        rebuild t (live_elements t)
    end

  let live t = t.live_count

  let rebuilds t = t.rebuild_count

  let iter t f =
    Array.iter (function None -> () | Some s -> f s.data) t.slots

  let space_words t words =
    Array.fold_left
      (fun acc -> function
        | None -> acc
        | Some s -> acc + words s.data + Array.length s.elems)
      0 t.slots
    + Hashtbl.length t.dead

  type node = {
    items : P.elem array;  (* weight descending *)
    mutable head : int;    (* first entry not known to be dead *)
  }

  let node elems =
    let items = Array.of_list elems in
    Array.sort W.compare_desc items;
    { items; head = 0 }

  let nodes_words nodes =
    Array.fold_left (fun acc n -> acc + Array.length n.items + 1) 0 nodes

  (* Each advance is paid for by one deletion, once. *)
  let peek t n =
    let len = Array.length n.items in
    while n.head < len && is_dead t n.items.(n.head) do
      n.head <- n.head + 1
    done;
    if n.head < len then Some n.items.(n.head) else None

  let heavier best = function
    | None -> best
    | Some c as cand -> (
        match best with
        | Some b when W.compare c b <= 0 -> best
        | _ -> cand)

  let best t bucket_max =
    let acc = ref None in
    iter t (fun b -> acc := heavier !acc (bucket_max b));
    !acc
end

module Make (S : Sigs.PRIORITIZED) = struct
  module P = S.P
  module B = Buckets (P)

  type t = S.t B.t

  let name = "bentley-saxe(" ^ S.name ^ ")"

  let build ?params elems = B.create (S.build ?params) elems

  let insert = B.insert

  let delete = B.delete

  let size = B.live

  let live = B.live

  let rebuilds = B.rebuilds

  let space_words t = B.space_words t S.space_words

  (* One I/O per bucket probed, plus the bucket's own visit; dead
     elements are filtered out before the sink sees them, so a bucket's
     runs are unrolled ([Sigs.sink] keeps their [handed ()] exact). *)
  let visit t q ~tau { Sigs.one; _ } =
    let live = Sigs.sink (fun e -> if not (B.is_dead t e) then one e) in
    B.iter t (fun s ->
        Stats.charge_ios 1;
        S.visit s q ~tau live)

  let query t q ~tau = Sigs.collect (visit t q ~tau)

  let query_monitored t q ~tau ~limit = Sigs.monitor ~limit (visit t q ~tau)
end
