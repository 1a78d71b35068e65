type 'a strategy =
  | Hash of ('a -> int)
  | Range of ('a -> float)
  | Balanced

let bucket_of_key ~shards key =
  (* splitmix64 finalizer ({!Topk_util.Rng.mix64}): decorrelates bucket
     choice from dense or structured ids, so [Hash P.id] behaves like a
     random assignment. *)
  let h = Topk_util.Rng.mix64 (Int64.of_int key) in
  (* Use the top bits, which mix best, and keep the result
     non-negative. *)
  Int64.to_int (Int64.rem (Int64.shift_right_logical h 1) (Int64.of_int shards))

let validate ~shards n =
  if shards < 1 then
    invalid_arg
      (Printf.sprintf "Partitioner.split: shards must be >= 1 (got %d)" shards);
  if shards > max 1 n then
    invalid_arg
      (Printf.sprintf
         "Partitioner.split: more shards than elements (shards=%d, n=%d)"
         shards n)

(* Cut [order] (a permutation of indices of [elems]) into [shards]
   contiguous chunks whose sizes differ by at most one. *)
let cut_contiguous elems order ~shards =
  let n = Array.length elems in
  let base = n / shards and extra = n mod shards in
  let out = Array.make shards [||] in
  let pos = ref 0 in
  for s = 0 to shards - 1 do
    let len = base + if s < extra then 1 else 0 in
    out.(s) <- Array.init len (fun i -> elems.(order.(!pos + i)));
    pos := !pos + len
  done;
  out

let split ~strategy ~shards elems =
  let n = Array.length elems in
  validate ~shards n;
  match strategy with
  | Hash key ->
      let buckets = Array.make shards [] in
      (* Walk backwards so each bucket list ends up in input order. *)
      for i = n - 1 downto 0 do
        let b = bucket_of_key ~shards (key elems.(i)) in
        buckets.(b) <- elems.(i) :: buckets.(b)
      done;
      Array.map Array.of_list buckets
  | Range key ->
      let order = Array.init n (fun i -> i) in
      (* Stable comparison with index tie-break: deterministic even if
         keys collide. *)
      Array.sort
        (fun i j ->
          match Float.compare (key elems.(i)) (key elems.(j)) with
          | 0 -> Int.compare i j
          | c -> c)
        order;
      cut_contiguous elems order ~shards
  | Balanced ->
      let out = Array.make shards [] in
      for i = n - 1 downto 0 do
        let s = i mod shards in
        out.(s) <- elems.(i) :: out.(s)
      done;
      Array.map Array.of_list out

let sizes partition = Array.map Array.length partition
