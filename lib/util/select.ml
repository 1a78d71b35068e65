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

(* The pivot stream: one per domain, all from the same seed, so
   concurrent workers never race on a shared generator and a
   single-domain caller sees the historical stream. *)
let pivot_rng = Domain.DLS.new_key (fun () -> Rng.create 0x5e1ec7)

let quickselect ~cmp arr i =
  let n = Array.length arr in
  if i < 0 || i >= n then invalid_arg "Select.quickselect: rank out of bounds";
  let rng = Domain.DLS.get pivot_rng in
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

(* --- Float-keyed selection ---

   [top_k_by] reads each element's key once into parallel unboxed
   arrays: position [i] holds weight [w.(i)] and id [ids.(i)] of the
   element at original index [perm.(i)].  Every step below permutes the
   three arrays together, so compares never touch the elements. *)

(* Whether (x, a) comes strictly before (y, b) in decreasing order of
   [Float.compare] on the weight, then of the id.  [Float.compare]
   places NaN below every other float and equal to itself. *)
let[@inline] before (x : float) (a : int) (y : float) (b : int) =
  if x > y then true
  else if x < y then false
  else if x = y then a > b
  else if Float.is_nan x then Float.is_nan y && a > b
  else true

let[@inline] swap3 (w : float array) (ids : int array) (perm : int array) i j =
  let x = Array.unsafe_get w i in
  Array.unsafe_set w i (Array.unsafe_get w j);
  Array.unsafe_set w j x;
  let a = Array.unsafe_get ids i in
  Array.unsafe_set ids i (Array.unsafe_get ids j);
  Array.unsafe_set ids j a;
  let p = Array.unsafe_get perm i in
  Array.unsafe_set perm i (Array.unsafe_get perm j);
  Array.unsafe_set perm j p

let insertion_sort w ids (perm : int array) lo hi =
  for i = lo + 1 to hi do
    let x = Array.unsafe_get w i
    and a = Array.unsafe_get ids i
    and p = Array.unsafe_get perm i in
    let j = ref (i - 1) in
    while
      !j >= lo && before x a (Array.unsafe_get w !j) (Array.unsafe_get ids !j)
    do
      Array.unsafe_set w (!j + 1) (Array.unsafe_get w !j);
      Array.unsafe_set ids (!j + 1) (Array.unsafe_get ids !j);
      Array.unsafe_set perm (!j + 1) (Array.unsafe_get perm !j);
      decr j
    done;
    Array.unsafe_set w (!j + 1) x;
    Array.unsafe_set ids (!j + 1) a;
    Array.unsafe_set perm (!j + 1) p
  done

(* Whether position [i] comes strictly before position [j]. *)
let[@inline] before_at (w : float array) (ids : int array) i j =
  before (Array.unsafe_get w i) (Array.unsafe_get ids i) (Array.unsafe_get w j)
    (Array.unsafe_get ids j)

(* Heapsort of [lo, hi] into decreasing order: a heap whose root is the
   element that comes last, repeatedly moved to the end of the range. *)
let heap_sort w ids perm lo hi =
  let rec sift root last =
    let l = lo + (2 * (root - lo)) + 1 in
    if l <= last then begin
      let c = if l < last && before_at w ids l (l + 1) then l + 1 else l in
      if before_at w ids root c then begin
        swap3 w ids perm c root;
        sift c last
      end
    end
  in
  for root = lo + ((hi - lo - 1) / 2) downto lo do
    sift root hi
  done;
  for last = hi downto lo + 1 do
    swap3 w ids perm lo last;
    sift lo (last - 1)
  done

(* Index of the median of positions [lo], [mid] and [hi]. *)
let median3 w ids lo hi =
  let mid = lo + ((hi - lo) / 2) in
  if before_at w ids lo mid then
    if before_at w ids mid hi then mid
    else if before_at w ids lo hi then hi
    else lo
  else if before_at w ids lo hi then lo
  else if before_at w ids mid hi then hi
  else mid

(* Hoare partition of [lo, hi] around the key at [p]: on return
   [bounds.(0) = j < bounds.(1) = i] with [lo, j] not after the pivot,
   [i, hi] not before it, and anything strictly between equal to it. *)
let partition w ids perm (bounds : int array) lo hi p =
  let pw = Array.unsafe_get w p and pid = Array.unsafe_get ids p in
  let i = ref lo and j = ref hi in
  while !i <= !j do
    while before (Array.unsafe_get w !i) (Array.unsafe_get ids !i) pw pid do
      incr i
    done;
    while before pw pid (Array.unsafe_get w !j) (Array.unsafe_get ids !j) do
      decr j
    done;
    if !i <= !j then begin
      swap3 w ids perm !i !j;
      incr i;
      decr j
    end
  done;
  Array.unsafe_set bounds 0 !j;
  Array.unsafe_set bounds 1 !i

let small = 16

let rec log2 m = if m <= 1 then 0 else 1 + log2 (m / 2)

(* Introsort of [lo, hi] into decreasing order: median-of-3 quicksort
   that turns to heapsort once [depth] levels are spent. *)
let rec sort_range w ids perm bounds lo hi depth =
  if hi - lo < small then insertion_sort w ids perm lo hi
  else if depth = 0 then heap_sort w ids perm lo hi
  else begin
    partition w ids perm bounds lo hi (median3 w ids lo hi);
    let j = bounds.(0) and i = bounds.(1) in
    sort_range w ids perm bounds lo j (depth - 1);
    sort_range w ids perm bounds i hi (depth - 1)
  end

(* Quickselect of decreasing rank [t]: afterwards position [t] holds
   it, [0, t) nothing after it and (t, m) nothing before it.  A round
   that fails to halve the live range is unproductive; after
   [2 log2 m] of those the rest of the range is sorted outright, so the
   worst case stays O(m log m). *)
let select_rank w ids perm bounds m t =
  let lo = ref 0 and hi = ref (m - 1) in
  let budget = ref (2 * log2 m) in
  while !lo < !hi do
    let len = !hi - !lo + 1 in
    if len <= small || !budget = 0 then begin
      sort_range w ids perm bounds !lo !hi (2 * log2 len);
      lo := !hi
    end
    else begin
      partition w ids perm bounds !lo !hi (median3 w ids !lo !hi);
      let j = bounds.(0) and i = bounds.(1) in
      if t <= j then hi := j
      else if t >= i then lo := i
      else lo := !hi;
      if 2 * (!hi - !lo + 1) > len then decr budget
    end
  done

(* The key arrays live in per-domain buffers that only grow: a fresh
   set per call would land on the major heap (they exceed the minor
   heap's size limit at a few hundred candidates) and cost more than
   the selection.  A call takes the set out of its slot and puts it
   back when done, so a [key] or [id] that re-enters [top_k_by], or
   raises, only costs a fresh set. *)
type buffers = {
  w : float array;
  ids : int array;
  perm : int array;
}

let no_buffers = { w = [||]; ids = [||]; perm = [||] }

let buffers = Domain.DLS.new_key (fun () -> ref no_buffers)

let take_buffers m =
  let slot = Domain.DLS.get buffers in
  let b = !slot in
  slot := no_buffers;
  if Array.length b.ids >= m then b
  else
    let cap = max m (2 * Array.length b.ids) in
    let ids = Array.make cap 0 and perm = Array.make cap 0 in
    { w = Array.create_float cap; ids; perm }

let top_k_by ~key ~id k xs =
  let m = List.length xs in
  if k <= 0 || m = 0 then []
  else begin
    let b = take_buffers m in
    let w = b.w and ids = b.ids and perm = b.perm in
    List.iteri
      (fun i e ->
        Array.unsafe_set w i (key e);
        Array.unsafe_set ids i (id e);
        Array.unsafe_set perm i i)
      xs;
    let bounds = [| 0; 0 |] in
    let k = if k < m then k else m in
    if k < m then select_rank w ids perm bounds m (k - 1);
    sort_range w ids perm bounds 0 (k - 1) (2 * log2 k);
    (* Rank [r] of the answer is original index [perm.(r)]; [ids],
       no longer needed as keys, maps original indices back to ranks
       for one more walk of [xs]. *)
    Array.fill ids 0 m (-1);
    for r = 0 to k - 1 do
      Array.unsafe_set ids (Array.unsafe_get perm r) r
    done;
    let out = Array.make k (List.hd xs) in
    List.iteri
      (fun i e ->
        let r = Array.unsafe_get ids i in
        if r >= 0 then Array.unsafe_set out r e)
      xs;
    Domain.DLS.get buffers := b;
    Array.to_list out
  end

(* --- Streaming selection ---

   A visit hands its matches to a sink one at a time ([one]) or as a
   slice already in [before] order ([run]).  A single that beats the
   lightest of the current [k] gets a slot: its weight, id and
   admission number are written once into unboxed per-domain buffers
   (taken and put back like [top_k_by]'s), and the element itself goes
   on a list.  Once [k] are held they are heapified; the heap orders
   slot numbers, so sifting moves ints and never passes a float to a
   non-inlined function, which would box it.  A run is only counted
   and recorded, cut to its first [k]; the answer merges the recorded
   runs with the sorted singles. *)

type 'a sink = {
  one : 'a -> unit;
  run : 'a array -> int -> int -> unit;
  handed : unit -> int;
}

let sink f =
  let handed = ref 0 in
  {
    one = f;
    run =
      (fun arr lo len ->
        for i = 0 to len - 1 do
          handed := i + 1;
          f (Array.unsafe_get arr (lo + i))
        done);
    handed = (fun () -> !handed);
  }

type slots = {
  w : float array;
  ids : int array;
  adm : int array;   (* admission number of the slot's element *)
  heap : int array;  (* slot numbers; the root is the lightest *)
}

let no_slots = { w = [||]; ids = [||]; adm = [||]; heap = [||] }

let slot_buffers = Domain.DLS.new_key (fun () -> ref no_slots)

(* [b] with room for twice as many slots. *)
let grow b =
  let len = Array.length b.ids in
  let extend a x =
    let a' = Array.make (max 16 (2 * len)) x in
    Array.blit a 0 a' 0 len;
    a'
  in
  { w = extend b.w 0.; ids = extend b.ids 0; adm = extend b.adm 0;
    heap = extend b.heap 0 }

(* Restore the heap order below position [p]: the lighter child moves
   up. *)
let rec sift_down w ids (heap : int array) size p =
  let l = (2 * p) + 1 in
  if l < size then begin
    let r = l + 1 in
    let c =
      if r < size && before_at w ids heap.(l) heap.(r) then r else l
    in
    let x = Array.unsafe_get heap p and y = Array.unsafe_get heap c in
    if before_at w ids x y then begin
      Array.unsafe_set heap p y;
      Array.unsafe_set heap c x;
      sift_down w ids heap size c
    end
  end

(* The same with the heavier child moving up: the root is the
   heaviest. *)
let rec sift_down_max w ids (heap : int array) size p =
  let l = (2 * p) + 1 in
  if l < size then begin
    let r = l + 1 in
    let c =
      if r < size && before_at w ids heap.(r) heap.(l) then r else l
    in
    let x = Array.unsafe_get heap p and y = Array.unsafe_get heap c in
    if before_at w ids y x then begin
      Array.unsafe_set heap p y;
      Array.unsafe_set heap c x;
      sift_down_max w ids heap size c
    end
  end

(* The first [cap] of the union of [sources] (non-empty [(arr, lo,
   len)] slices, each in [before] order), heaviest first: a k-way merge
   over a max-heap of source heads.  The cursors live in the per-domain
   slots: [w] and [ids] hold each source's head key, read once per
   head, [adm] its position, and [heap] the source numbers with the
   heaviest head at the root. *)
let merge ~key ~id cap sources =
  let r = Array.length sources in
  let slot = Domain.DLS.get slot_buffers in
  let b = ref !slot in
  slot := no_slots;
  while Array.length !b.ids < r do
    b := grow !b
  done;
  let { w; ids; adm = pos; heap } = !b in
  let total = ref 0 in
  let read i =
    let arr, _, _ = Array.unsafe_get sources i in
    let e = Array.unsafe_get arr (Array.unsafe_get pos i) in
    Array.unsafe_set w i (key e);
    Array.unsafe_set ids i (id e)
  in
  for i = 0 to r - 1 do
    let _, lo, len = sources.(i) in
    total := !total + len;
    pos.(i) <- lo;
    read i;
    heap.(i) <- i
  done;
  for p = (r / 2) - 1 downto 0 do
    sift_down_max w ids heap r p
  done;
  let m = min cap !total in
  let first, lo0, _ = sources.(0) in
  let out = Array.make m first.(lo0) in
  let live = ref r in
  for j = 0 to m - 1 do
    let i = Array.unsafe_get heap 0 in
    let arr, lo, len = Array.unsafe_get sources i in
    let p = Array.unsafe_get pos i in
    Array.unsafe_set out j (Array.unsafe_get arr p);
    if p + 1 < lo + len then begin
      Array.unsafe_set pos i (p + 1);
      read i
    end
    else begin
      decr live;
      Array.unsafe_set heap 0 (Array.unsafe_get heap !live)
    end;
    sift_down_max w ids heap !live 0
  done;
  slot := !b;
  Array.to_list out

type 'a stream = {
  mutable b : slots;
  mutable size : int;
  mutable count : int;
  mutable admitted : 'a list;  (* newest first *)
  mutable admissions : int;
  mutable runs : ('a array * int * int) list;  (* cut to [cap] *)
  mutable handed : int;  (* of the run the stream stopped in *)
}

let top_k_iter ~key ~id ~limit k iter =
  let exception Stop in
  let limit = max 0 limit in
  let slot = Domain.DLS.get slot_buffers in
  let st =
    { b = !slot; size = 0; count = 0; admitted = []; admissions = 0;
      runs = []; handed = 0 }
  in
  slot := no_slots;
  (* At most [limit] elements are ever admitted: the next one stops. *)
  let cap = max 0 (min k limit) in
  let one e =
    let c = st.count + 1 in
    st.count <- c;
    if c > limit then raise_notrace Stop;
    if cap > 0 then begin
      let x = key e and a = id e in
      let size = st.size in
      if size < cap then begin
        if size = Array.length st.b.ids then st.b <- grow st.b;
        let b = st.b in
        Array.unsafe_set b.w size x;
        Array.unsafe_set b.ids size a;
        Array.unsafe_set b.adm size st.admissions;
        Array.unsafe_set b.heap size size;
        st.admitted <- e :: st.admitted;
        st.admissions <- st.admissions + 1;
        st.size <- size + 1;
        (* The first [cap] are kept unordered; a stream that stops
           short of [cap] is only sorted. *)
        if size + 1 = cap then
          for p = (cap / 2) - 1 downto 0 do
            sift_down b.w b.ids b.heap cap p
          done
      end
      else begin
        let b = st.b in
        let root = Array.unsafe_get b.heap 0 in
        if before x a (Array.unsafe_get b.w root) (Array.unsafe_get b.ids root)
        then begin
          Array.unsafe_set b.w root x;
          Array.unsafe_set b.ids root a;
          Array.unsafe_set b.adm root st.admissions;
          st.admitted <- e :: st.admitted;
          st.admissions <- st.admissions + 1;
          sift_down b.w b.ids b.heap size 0
        end
      end
    end
  in
  let run arr lo len =
    if len > 0 then begin
      let c = st.count in
      (* [c <= limit]: a stream past it has stopped. *)
      if len > limit - c then begin
        st.handed <- limit + 1 - c;
        raise_notrace Stop
      end;
      st.count <- c + len;
      if cap > 0 then st.runs <- (arr, lo, min len cap) :: st.runs
    end
  in
  let s = { one; run; handed = (fun () -> st.handed) } in
  match iter s with
  | exception ex -> (
      slot := st.b;
      match ex with Stop -> None | _ -> raise ex)
  | () ->
      let b = st.b and size = st.size in
      (* The heap is spent; it becomes the permutation of the sort. *)
      for i = 0 to size - 1 do
        Array.unsafe_set b.heap i i
      done;
      sort_range b.w b.ids b.heap [| 0; 0 |] 0 (size - 1) (2 * log2 size);
      let admitted = Array.of_list st.admitted and last = st.admissions - 1 in
      let single r =
        Array.unsafe_get admitted
          (last - Array.unsafe_get b.adm (Array.unsafe_get b.heap r))
      in
      if st.runs = [] then begin
        let top = List.init size single in
        slot := b;
        Some (st.count, top)
      end
      else begin
        let singles = Array.init size single in
        slot := b;
        let sources =
          Array.of_list
            (if size > 0 then (singles, 0, size) :: st.runs else st.runs)
        in
        Some (st.count, merge ~key ~id cap sources)
      end
