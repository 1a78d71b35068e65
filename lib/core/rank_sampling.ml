module Rng = Topk_util.Rng
module Select = Topk_util.Select

let min_p ~k ~delta =
  if k <= 0 then invalid_arg "Rank_sampling.min_p: k must be >= 1";
  if delta <= 0. || delta >= 1. then
    invalid_arg "Rank_sampling.min_p: delta must be in (0,1)";
  min 1. (3. *. log (3. /. delta) /. float_of_int k)

(* The rank [ceil (2 k p)] that Lemma 1 inspects in the sample. *)
let sample_rank ~k ~p =
  int_of_float (ceil (2. *. float_of_int k *. p))

type outcome =
  | Ok_rank
  | Too_few_samples
  | Rank_too_low
  | Rank_too_high

let rank_of ~cmp arr x =
  let greater = ref 0 in
  Array.iter (fun y -> if cmp y x > 0 then incr greater) arr;
  !greater + 1

let lemma1_trial rng ~cmp ~k ~p arr =
  let r = Rng.sample rng ~p arr in
  let threshold = 2. *. float_of_int k *. p in
  if float_of_int (Array.length r) <= threshold then Too_few_samples
  else begin
    let rank_in_sample = sample_rank ~k ~p in
    (* Element of rank [rank_in_sample] from the greatest in R. *)
    let e = Select.nth_largest ~cmp r rank_in_sample in
    let rank_in_ground = rank_of ~cmp arr e in
    if rank_in_ground < k then Rank_too_low
    else if rank_in_ground > 4 * k then Rank_too_high
    else Ok_rank
  end

let lemma3_trial rng ~cmp ~kk arr =
  if kk < 2. then invalid_arg "Rank_sampling.lemma3_trial: K must be >= 2";
  let r = Rng.sample rng ~p:(1. /. kk) arr in
  if Array.length r = 0 then Too_few_samples
  else begin
    let e = Select.nth_largest ~cmp r 1 in
    let rank = float_of_int (rank_of ~cmp arr e) in
    if rank <= kk then Rank_too_low
    else if rank > 4. *. kk then Rank_too_high
    else Ok_rank
  end
