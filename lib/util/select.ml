let swap arr i j =
  let tmp = arr.(i) in
  arr.(i) <- arr.(j);
  arr.(j) <- tmp

(* Three-way partition of arr.[lo,hi] around the pivot value at [p]:
   returns (lt, gt) with elements < pivot in [lo,lt), = pivot in
   [lt,gt], > pivot in (gt,hi]. *)
let partition3 ~cmp arr lo hi p =
  let pivot = arr.(p) in
  swap arr p hi;
  let lt = ref lo and i = ref lo and gt = ref hi in
  while !i <= !gt do
    let c = cmp arr.(!i) pivot in
    if c < 0 then begin
      swap arr !i !lt;
      incr lt;
      incr i
    end
    else if c > 0 then begin
      swap arr !i !gt;
      decr gt
    end
    else incr i
  done;
  (!lt, !gt)

let rec select_rec ~pick ~cmp arr lo hi i =
  if lo = hi then arr.(lo)
  else begin
    let p = pick arr lo hi in
    let lt, gt = partition3 ~cmp arr lo hi p in
    if i < lt then select_rec ~pick ~cmp arr lo (lt - 1) i
    else if i > gt then select_rec ~pick ~cmp arr (gt + 1) hi i
    else arr.(i)
  end

let default_rng = Rng.create 0x5e1ec7

let quickselect ?rng ~cmp arr i =
  let n = Array.length arr in
  if i < 0 || i >= n then invalid_arg "Select.quickselect: rank out of bounds";
  let rng = match rng with Some r -> r | None -> default_rng in
  let pick _ lo hi = lo + Rng.int rng (hi - lo + 1) in
  select_rec ~pick ~cmp arr 0 (n - 1) i

(* Median-of-medians pivot: groups of 5, median of each, then recursive
   median of those medians.  Guarantees a 30/70 split. *)
let rec mom_pick ~cmp arr lo hi =
  let n = hi - lo + 1 in
  if n <= 5 then begin
    let sub = Array.sub arr lo n in
    Array.sort cmp sub;
    let med = sub.(n / 2) in
    let idx = ref lo in
    for j = lo to hi do
      if cmp arr.(j) med = 0 then idx := j
    done;
    !idx
  end
  else begin
    let groups = (n + 4) / 5 in
    let medians = Array.make groups arr.(lo) in
    for g = 0 to groups - 1 do
      let glo = lo + (5 * g) in
      let ghi = min hi (glo + 4) in
      let sub = Array.sub arr glo (ghi - glo + 1) in
      Array.sort cmp sub;
      medians.(g) <- sub.(Array.length sub / 2)
    done;
    let med = mom_select ~cmp medians ((groups - 1) / 2) in
    let idx = ref lo in
    (try
       for j = lo to hi do
         if cmp arr.(j) med = 0 then begin
           idx := j;
           raise Exit
         end
       done
     with Exit -> ());
    !idx
  end

and mom_select ~cmp arr i =
  select_rec ~pick:(fun a lo hi -> mom_pick ~cmp a lo hi) ~cmp arr
    0 (Array.length arr - 1) i

let median_of_medians ~cmp arr i =
  let n = Array.length arr in
  if i < 0 || i >= n then
    invalid_arg "Select.median_of_medians: rank out of bounds";
  mom_select ~cmp arr i

let nth_largest ~cmp arr r =
  let n = Array.length arr in
  if r < 1 || r > n then invalid_arg "Select.nth_largest: rank out of bounds";
  quickselect ~cmp arr (n - r)

let top_k ~cmp k xs =
  if k <= 0 then []
  else begin
    let work = Array.of_list xs in
    let n = Array.length work in
    if n <= k then begin
      Array.sort (fun a b -> cmp b a) work;
      Array.to_list work
    end
    else begin
      (* Pivot the k-th largest into place, then sort only the top part. *)
      ignore (quickselect ~cmp work (n - k));
      let top = Array.sub work (n - k) k in
      Array.sort (fun a b -> cmp b a) top;
      Array.to_list top
    end
  end
