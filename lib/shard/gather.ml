module Stats = Topk_em.Stats

(* A max-heap of cursor slots, one per non-empty input: slot [s] holds
   its list's current head and the rest, and [heap.(0 .. size-1)] keeps
   the slots ordered by head.  Advancing a cursor rewrites its slot in
   place, so a step allocates nothing but the output cell. *)
let merge ~cmp ~k lists =
  let live =
    Array.of_list (List.filter (function [] -> false | _ :: _ -> true) lists)
  in
  if k <= 0 || Array.length live = 0 then []
  else begin
    let heads = Array.map List.hd live and rests = Array.map List.tl live in
    let size = ref (Array.length live) in
    let heap = Array.init !size Fun.id in
    let above i j = cmp heads.(heap.(i)) heads.(heap.(j)) > 0 in
    let rec sift i =
      let l = (2 * i) + 1 in
      if l < !size then begin
        let c = if l + 1 < !size && above (l + 1) l then l + 1 else l in
        if above c i then begin
          let s = heap.(i) in
          heap.(i) <- heap.(c);
          heap.(c) <- s;
          sift c
        end
      end
    in
    for i = (!size / 2) - 1 downto 0 do
      sift i
    done;
    let out = ref [] and taken = ref 0 in
    while !taken < k && !size > 0 do
      let s = heap.(0) in
      out := heads.(s) :: !out;
      incr taken;
      (match rests.(s) with
      | [] ->
          decr size;
          heap.(0) <- heap.(!size)
      | y :: rest ->
          heads.(s) <- y;
          rests.(s) <- rest);
      sift 0
    done;
    (* Consuming one element of a sorted shard answer is one step of
       the O(k/B) output scan: one charge for all of them. *)
    Stats.charge_scan !taken;
    List.rev !out
  end

let merge_certified ~cmp ~weight ~k answers =
  let all_complete = List.for_all snd answers in
  let merged = merge ~cmp ~k (List.map fst answers) in
  if all_complete then (merged, true)
  else begin
    (* A truncated shard [l] certifies only that its unreported
       elements are strictly lighter than [l]'s last reported weight.
       A merged element is therefore provably in the global prefix iff
       it is at least as heavy as {e every} incomplete shard's last
       weight — the threshold is the {e max} of those weights.  An
       empty truncated answer certifies nothing (threshold [+inf]:
       that shard could be hiding arbitrarily heavy elements). *)
    let threshold =
      List.fold_left
        (fun acc (l, complete) ->
          if complete then acc
          else
            match l with
            | [] -> Float.infinity
            | l -> Float.max acc (weight (List.nth l (List.length l - 1))))
        Float.neg_infinity answers
    in
    let prefix = List.filter (fun e -> weight e >= threshold) merged in
    (* If the certified prefix already holds k elements the cutoffs
       were harmless: the global top-k is exact. *)
    (prefix, List.length prefix >= k)
  end
