module Stats = Topk_em.Stats
module Search = Topk_util.Search

type t = {
  ring : Point2.t array;   (* CCW, starting at the lexicographic min *)
  lower : Point2.t array;  (* lower chain, x (then y) ascending *)
  upper : Point2.t array;  (* upper chain, x (then y) ascending *)
}

let compare_xy (p : Point2.t) (q : Point2.t) =
  match Float.compare p.Point2.x q.Point2.x with
  | 0 -> Float.compare p.Point2.y q.Point2.y
  | c -> c

(* Build one chain: keep only strict turns (orient > 0 survives). *)
let chain pts =
  let n = Array.length pts in
  let stack = Array.make (max 1 n) pts.(0) in
  let top = ref 0 in
  for i = 0 to n - 1 do
    let p = pts.(i) in
    while
      !top >= 2 && Point2.orient stack.(!top - 2) stack.(!top - 1) p <= 0.
    do
      decr top
    done;
    stack.(!top) <- p;
    incr top
  done;
  Array.sub stack 0 !top

let of_sorted_points sorted =
  let n = Array.length sorted in
  if n = 0 then { ring = [||]; lower = [||]; upper = [||] }
  else begin
    let lower = chain sorted in
    let reversed = Array.of_list (List.rev (Array.to_list sorted)) in
    let upper_desc = chain reversed in
    let upper = Array.of_list (List.rev (Array.to_list upper_desc)) in
    let l = Array.length lower and u = Array.length upper in
    let ring =
      if l + u - 2 <= 0 then [| lower.(0) |]
      else
        Array.init
          (l + u - 2)
          (fun i -> if i < l then lower.(i) else upper.(l + u - 2 - i))
    in
    { ring; lower; upper }
  end

let of_points pts =
  let sorted = Array.copy pts in
  Array.sort compare_xy sorted;
  of_sorted_points sorted

let is_empty t = Array.length t.ring = 0

let ring t = t.ring

let space_words t =
  Array.length t.ring + Array.length t.lower + Array.length t.upper

(* Index into the ring of the j-th upper-chain vertex (x ascending). *)
let ring_index_of_upper t j =
  let l = Array.length t.lower and u = Array.length t.upper in
  let len = Array.length t.ring in
  if j = 0 then 0 else (l - 1 + (u - 1 - j)) mod len

(* Binary search for the maximum of an (x-monotone, sign-unimodal)
   dot-product sequence along a chain. *)
let chain_argmax chainv dir =
  let len = Array.length chainv in
  let f i = Point2.dot chainv.(i) dir in
  Stats.charge_ios (max 1 (int_of_float (Float.log2 (float_of_int (len + 1)))));
  if len = 1 then 0
  else
    match Search.binary_search_first (fun i -> f (i + 1) < f i) 0 (len - 1) with
    | Some i -> i
    | None -> len - 1

let extreme t ~dir =
  let a, b = dir in
  if a = 0. && b = 0. then invalid_arg "Chull.extreme: zero direction";
  let len = Array.length t.ring in
  if len = 0 then None
  else if len = 1 then Some (0, t.ring.(0))
  else if b < 0. || (b = 0. && a > 0.) then begin
    (* Lower chain holds every downward extreme; for b = 0, a > 0 the
       rightmost vertex (last of the lower chain) is extreme.  Ring
       indices 0 .. L-1 are exactly the lower chain. *)
    let j =
      if b = 0. then Array.length t.lower - 1 else chain_argmax t.lower dir
    in
    Some (j, t.lower.(j))
  end
  else if b > 0. then begin
    let j = chain_argmax t.upper dir in
    let idx = ring_index_of_upper t j in
    Some (idx, t.upper.(j))
  end
  else (* b = 0., a < 0. : leftmost vertex *)
    Some (0, t.ring.(0))

let report_halfplane t h f =
  match extreme t ~dir:(Halfplane.direction h) with
  | None -> 0
  | Some (idx, p) ->
      if not (Halfplane.contains h p) then 0
      else begin
        let len = Array.length t.ring in
        let count = ref 0 in
        let report q =
          Stats.charge_scan 1;
          incr count;
          f q
        in
        report p;
        (* The inside vertices form a contiguous arc around [idx]. *)
        let fwd = ref 1 in
        while
          !fwd < len && Halfplane.contains h t.ring.((idx + !fwd) mod len)
        do
          report t.ring.((idx + !fwd) mod len);
          incr fwd
        done;
        let back = ref 1 in
        while
          !back <= len - !fwd
          && Halfplane.contains h t.ring.((idx - !back + len) mod len)
        do
          report t.ring.((idx - !back + len) mod len);
          incr back
        done;
        !count
      end
