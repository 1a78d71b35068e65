module Stats = Topk_em.Stats

type 's t = {
  n : int;
  (* levels.(l) holds the structures of size [2^l] blocks, indexed by
     [offset / 2^l]. *)
  levels : 's array array;
}

let build ~build ~n =
  if n < 0 then invalid_arg "Prefix_blocks.build: negative length";
  let rec levels acc l =
    let len = 1 lsl l in
    if len > n && l > 0 then List.rev acc
    else begin
      let count = (n + len - 1) / len in
      let structures =
        Array.init count (fun i ->
            let o = i * len in
            build o (min len (n - o)))
      in
      levels (structures :: acc) (l + 1)
    end
  in
  if n = 0 then { n; levels = [||] }
  else { n; levels = Array.of_list (levels [] 0) }

let length t = t.n

let query_prefix t m =
  let m = min m t.n in
  (* Peel the largest aligned block starting at the current offset that
     still fits in the prefix. *)
  let rec go acc o =
    if o >= m then List.rev acc
    else begin
      let remaining = m - o in
      let max_level = Array.length t.levels - 1 in
      (* Largest l with 2^l <= remaining and o aligned to 2^l. *)
      let l = ref (min max_level (int_of_float (Float.log2 (float_of_int remaining)))) in
      while (1 lsl !l) > remaining || o land ((1 lsl !l) - 1) <> 0 do
        decr l
      done;
      Stats.charge_ios 1;
      let s = t.levels.(!l).(o lsr !l) in
      go (s :: acc) (o + (1 lsl !l))
    end
  in
  go [] 0

let fold_all t ~init ~f =
  Array.fold_left (fun acc lvl -> Array.fold_left f acc lvl) init t.levels
