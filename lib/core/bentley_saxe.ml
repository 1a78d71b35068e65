module Stats = Topk_em.Stats

module Make (S : Sigs.PRIORITIZED) = struct
  module P = S.P

  type bucket = {
    structure : S.t;
    elems : P.elem array;  (* what it was built from *)
  }

  type t = {
    mutable buckets : bucket option array;  (* slot i holds <= 2^i elems *)
    dead : (int, unit) Hashtbl.t;
    mutable live_count : int;
    mutable rebuild_count : int;
    params : Params.t option;  (* threaded into every bucket rebuild *)
  }

  let name = "bentley-saxe(" ^ S.name ^ ")"

  let empty ?params () =
    {
      buckets = Array.make 1 None;
      dead = Hashtbl.create 64;
      live_count = 0;
      rebuild_count = 0;
      params;
    }

  let is_dead t (e : P.elem) = Hashtbl.mem t.dead (P.id e)

  (* Distribute [elems] over buckets by the binary representation of
     the count, leaving lower slots empty for cheap insertions. *)
  let fill t elems =
    let n = Array.length elems in
    let slots = ref 1 in
    while 1 lsl !slots <= n do incr slots done;
    t.buckets <- Array.make (max 1 !slots) None;
    let offset = ref 0 in
    for i = !slots - 1 downto 0 do
      let cap = 1 lsl i in
      if n - !offset >= cap then begin
        let part = Array.sub elems !offset cap in
        t.buckets.(i) <-
          Some { structure = S.build ?params:t.params part; elems = part };
        offset := !offset + cap
      end
    done

  let build ?params elems =
    let t = empty ?params () in
    let elems = Array.copy elems in
    t.live_count <- Array.length elems;
    fill t elems;
    t

  let live_elements t =
    let acc = ref [] in
    Array.iter
      (function
        | None -> ()
        | Some b ->
            Array.iter
              (fun e -> if not (is_dead t e) then acc := e :: !acc)
              b.elems)
      t.buckets;
    Array.of_list !acc

  let global_rebuild t =
    let elems = live_elements t in
    Hashtbl.reset t.dead;
    t.rebuild_count <- t.rebuild_count + 1;
    t.live_count <- Array.length elems;
    fill t elems

  let insert_fresh t e =
    (* Find the first empty slot; everything below merges into it. *)
    let slot = ref 0 in
    let n_slots = Array.length t.buckets in
    while !slot < n_slots && t.buckets.(!slot) <> None do incr slot done;
    if !slot >= n_slots then begin
      let grown = Array.make (n_slots + 1) None in
      Array.blit t.buckets 0 grown 0 n_slots;
      t.buckets <- grown
    end;
    let merged = ref [ e ] in
    for i = 0 to !slot - 1 do
      (match t.buckets.(i) with
       | Some b ->
           Array.iter
             (fun x ->
               if is_dead t x then Hashtbl.remove t.dead (P.id x)
               else merged := x :: !merged)
             b.elems
       | None -> ());
      t.buckets.(i) <- None
    done;
    let part = Array.of_list !merged in
    (* Tombstone purging during the merge may have shrunk the batch
       below this slot's capacity; that only helps. *)
    t.buckets.(!slot) <-
      Some { structure = S.build ?params:t.params part; elems = part };
    t.live_count <- t.live_count + 1

  let insert t e =
    if Hashtbl.mem t.dead (P.id e) then begin
      (* Re-insert of a tombstoned id: the stale copy is still baked
         into some bucket, so merely dropping the tombstone would
         resurrect it alongside the new element.  Rebuild from the
         surviving set (which excludes the stale copy) plus [e]. *)
      let merged = Array.append (live_elements t) [| e |] in
      Hashtbl.reset t.dead;
      t.rebuild_count <- t.rebuild_count + 1;
      t.live_count <- Array.length merged;
      fill t merged
    end
    else insert_fresh t e

  let delete t e =
    if not (Hashtbl.mem t.dead (P.id e)) then begin
      Hashtbl.replace t.dead (P.id e) ();
      t.live_count <- t.live_count - 1;
      if Hashtbl.length t.dead > max 8 t.live_count then global_rebuild t
    end

  let size t = t.live_count

  let live t = t.live_count

  let rebuilds t = t.rebuild_count

  let space_words t =
    Array.fold_left
      (fun acc -> function
        | None -> acc
        | Some b -> acc + S.space_words b.structure + Array.length b.elems)
      0 t.buckets
    + Hashtbl.length t.dead

  (* One I/O per bucket probed, plus the bucket's own visit; dead
     elements are filtered out before the sink sees them, so a bucket's
     runs are unrolled ([Sigs.sink] keeps their [handed ()] exact). *)
  let visit t q ~tau { Sigs.one; _ } =
    let live = Sigs.sink (fun e -> if not (is_dead t e) then one e) in
    Array.iter
      (function
        | None -> ()
        | Some b ->
            Stats.charge_ios 1;
            S.visit b.structure q ~tau live)
      t.buckets

  let query t q ~tau = Sigs.collect (visit t q ~tau)

  let query_monitored t q ~tau ~limit = Sigs.monitor ~limit (visit t q ~tau)
end
