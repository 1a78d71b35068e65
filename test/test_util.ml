(* Tests for the utility layer: RNG, heaps, selection, search, the
   workload generators every experiment relies on, and the clock. *)

module Rng = Topk_util.Rng
module Heap = Topk_util.Heap
module Select = Topk_util.Select
module Search = Topk_util.Search
module Gen = Topk_util.Gen
module Clock = Topk_util.Clock

(* --- Rng --- *)

(* Seed-compat law for the deduplicated splitmix64: {!Rng.Raw} and
   {!Rng.mix64} must reproduce, bit for bit, the private copies they
   replaced in lib/em/fault.ml, lib/durable/disk.ml and
   lib/shard/partitioner.ml — otherwise every historical seeded fault,
   crash and shard schedule silently changes.  The reference below is a
   verbatim transcription of the retired copies. *)

let reference_next st =
  let open Int64 in
  st := add !st 0x9E3779B97F4A7C15L;
  let z = !st in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let test_raw_seed_compat () =
  List.iter
    (fun seed ->
      (* The Fault-layer per-domain stream seed shape… *)
      let fault_seed = Int64.of_int (seed lxor (1 * 0x9E3779B9)) in
      (* …and the Disk-layer global stream seed shape. *)
      let disk_seed = Int64.of_int (seed lxor 0x6b7a) in
      List.iter
        (fun s ->
          let st = ref s in
          let raw = Rng.Raw.create s in
          for i = 1 to 200 do
            let want = reference_next st in
            Alcotest.(check int64)
              (Printf.sprintf "raw stream (seed %Ld, draw %d)" s i)
              want (Rng.Raw.next raw)
          done;
          (* The two derived draws, from identical stream positions. *)
          let st = ref s and raw = Rng.Raw.create s in
          for _ = 1 to 50 do
            let w = reference_next st in
            Alcotest.(check (float 0.))
              "uniform"
              (Int64.to_float (Int64.shift_right_logical w 11)
              /. 9007199254740992.)
              (Rng.Raw.uniform raw);
            let w = reference_next st in
            Alcotest.(check int) "below_incl"
              (Int64.to_int
                 (Int64.rem (Int64.shift_right_logical w 1) 17L))
              (Rng.Raw.below_incl raw 16)
          done)
        [ fault_seed; disk_seed ])
    [ 0; 42; 7; 123456789; -3 ];
  (* The Partitioner finalizer: mix64 x = mix (x + golden) = the first
     draw of a raw stream started at x. *)
  List.iter
    (fun x ->
      Alcotest.(check int64)
        (Printf.sprintf "mix64 %Ld" x)
        (reference_next (ref x))
        (Rng.mix64 x))
    [ 0L; 1L; -1L; 42L; 0x123456789ABCDEFL ]

let test_raw_reseed () =
  let a = Rng.Raw.create 99L in
  ignore (Rng.Raw.next a : int64);
  ignore (Rng.Raw.next a : int64);
  Rng.Raw.reseed a 99L;
  let b = Rng.Raw.create 99L in
  for _ = 1 to 20 do
    Alcotest.(check int64) "reseed restarts" (Rng.Raw.next b) (Rng.Raw.next a)
  done

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done;
  let c = Rng.create 43 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits64 (Rng.copy c) <> Rng.bits64 (Rng.copy a) then differs := true;
    ignore (Rng.bits64 a);
    ignore (Rng.bits64 c)
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let b = Rng.split a in
  (* The split stream must not replay the parent's. *)
  let xa = Array.init 20 (fun _ -> Rng.bits64 a) in
  let xb = Array.init 20 (fun _ -> Rng.bits64 b) in
  Alcotest.(check bool) "streams differ" true (xa <> xb)

let test_rng_int_bounds () =
  let rng = Rng.create 11 in
  for _ = 1 to 10_000 do
    let bound = 1 + Rng.int rng 100 in
    let v = Rng.int rng bound in
    if v < 0 || v >= bound then Alcotest.fail "out of bounds"
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be > 0")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_int_roughly_uniform () =
  let rng = Rng.create 13 in
  let counts = Array.make 10 0 in
  let trials = 100_000 in
  for _ = 1 to trials do
    let v = Rng.int rng 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = trials / 10 in
      if abs (c - expected) > expected / 5 then
        Alcotest.failf "bucket %d skewed: %d" i c)
    counts

let test_rng_bernoulli () =
  let rng = Rng.create 17 in
  Alcotest.(check bool) "p=0" false (Rng.bernoulli rng 0.);
  Alcotest.(check bool) "p=1" true (Rng.bernoulli rng 1.);
  let hits = ref 0 in
  let trials = 50_000 in
  for _ = 1 to trials do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int trials in
  Alcotest.(check bool) "rate near 0.3" true (Float.abs (rate -. 0.3) < 0.02)

let test_rng_sample_rate () =
  let rng = Rng.create 19 in
  let arr = Array.init 10_000 (fun i -> i) in
  let s = Rng.sample rng ~p:0.1 arr in
  let m = Array.length s in
  Alcotest.(check bool) "size near np" true (abs (m - 1000) < 200);
  (* A sample preserves relative order and draws without replacement. *)
  Alcotest.(check bool) "sorted subsequence" true
    (Search.is_sorted ~cmp:Int.compare s);
  Alcotest.(check int) "p=1 keeps all" 10_000
    (Array.length (Rng.sample rng ~p:1. arr));
  Alcotest.(check int) "p=0 keeps none" 0
    (Array.length (Rng.sample rng ~p:0. arr))

(* --- Heap --- *)

let test_heap_sorts () =
  let rng = Rng.create 23 in
  let arr = Array.init 1000 (fun _ -> Rng.int rng 10_000) in
  let h = Heap.of_array ~cmp:Int.compare arr in
  let drained = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some x ->
        drained := x :: !drained;
        drain ()
    | None -> ()
  in
  drain ();
  let got = Array.of_list (List.rev !drained) in
  let expected = Array.copy arr in
  Array.sort Int.compare expected;
  Alcotest.(check bool) "heap drains sorted" true (got = expected)

let test_heap_push_pop_interleaved () =
  let h = Heap.create ~cmp:Int.compare () in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Heap.push h 5;
  Heap.push h 1;
  Heap.push h 3;
  Alcotest.(check (option int)) "peek min" (Some 1) (Heap.peek h);
  Alcotest.(check (option int)) "pop min" (Some 1) (Heap.pop h);
  Heap.push h 0;
  Alcotest.(check (option int)) "new min" (Some 0) (Heap.pop h);
  Alcotest.(check int) "length" 2 (Heap.length h);
  Alcotest.check_raises "pop_exn on empty"
    (Invalid_argument "Heap.pop_exn: empty heap") (fun () ->
      ignore (Heap.pop_exn h);
      ignore (Heap.pop_exn h);
      ignore (Heap.pop_exn h))

(* --- Select --- *)

let test_quickselect_matches_sort () =
  let rng = Rng.create 29 in
  for _ = 1 to 50 do
    let n = 1 + Rng.int rng 500 in
    let arr = Array.init n (fun _ -> Rng.int rng 1000) in
    let sorted = Array.copy arr in
    Array.sort Int.compare sorted;
    let i = Rng.int rng n in
    Alcotest.(check int) "rank i"
      sorted.(i)
      (Select.quickselect ~cmp:Int.compare (Array.copy arr) i)
  done

let test_median_of_medians_matches_sort () =
  let rng = Rng.create 31 in
  for _ = 1 to 30 do
    let n = 1 + Rng.int rng 300 in
    let arr = Array.init n (fun _ -> Rng.int rng 100) in
    let sorted = Array.copy arr in
    Array.sort Int.compare sorted;
    let i = Rng.int rng n in
    Alcotest.(check int) "rank i (deterministic)"
      sorted.(i)
      (Select.median_of_medians ~cmp:Int.compare (Array.copy arr) i)
  done

let test_top_k () =
  let xs = [ 5; 1; 9; 3; 7; 2; 8 ] in
  Alcotest.(check (list int)) "top 3" [ 9; 8; 7 ]
    (Select.top_k ~cmp:Int.compare 3 xs);
  Alcotest.(check (list int)) "top 0" [] (Select.top_k ~cmp:Int.compare 0 xs);
  Alcotest.(check (list int)) "top > n" [ 9; 8; 7; 5; 3; 2; 1 ]
    (Select.top_k ~cmp:Int.compare 100 xs);
  Alcotest.(check (list int)) "empty" [] (Select.top_k ~cmp:Int.compare 3 [])

let test_nth_largest () =
  let arr = [| 5; 1; 9; 3; 7 |] in
  Alcotest.(check int) "1st largest" 9
    (Select.nth_largest ~cmp:Int.compare (Array.copy arr) 1);
  Alcotest.(check int) "3rd largest" 5
    (Select.nth_largest ~cmp:Int.compare (Array.copy arr) 3);
  Alcotest.(check int) "5th largest" 1
    (Select.nth_largest ~cmp:Int.compare (Array.copy arr) 5);
  Alcotest.check_raises "rank 0"
    (Invalid_argument "Select.nth_largest: rank out of bounds") (fun () ->
      ignore (Select.nth_largest ~cmp:Int.compare (Array.copy arr) 0))

let prop_top_k_matches_sort =
  QCheck.Test.make ~count:200 ~name:"top_k equals sort-take"
    QCheck.(pair (list int) small_nat)
    (fun (xs, k) ->
      let expected =
        List.sort (fun a b -> Int.compare b a) xs
        |> List.filteri (fun i _ -> i < k)
      in
      Select.top_k ~cmp:Int.compare k xs = expected)

(* [top_k_by] must pick physically the same elements, in the same
   order, as the reference [top_k ~cmp] under the (Float.compare
   weight, id) order it hard-codes — on the shapes that break naive
   float compares (NaN, ±inf, -0., duplicate weights) and naive
   quickselects (sorted, reversed, constant, median-of-3 killers). *)

type kv = { w : float; id : int }

let kv_cmp a b =
  match Float.compare a.w b.w with 0 -> Int.compare a.id b.id | c -> c

let by_key k xs = Select.top_k_by ~key:(fun e -> e.w) ~id:(fun e -> e.id) k xs

let same_elements a b =
  List.length a = List.length b && List.for_all2 ( == ) a b

let kvs weights = List.mapi (fun id w -> { w; id }) (Array.to_list weights)

(* Musser's median-of-3 killer sequence of even length [m]. *)
let m3_killer m =
  let h = m / 2 in
  Array.init m (fun i ->
      let i = i + 1 in
      if i <= h then float_of_int (if i mod 2 = 1 then i else h + i - 1)
      else float_of_int (2 * (i - h)))

let select_shapes m =
  let rng = Rng.create (41 + m) in
  let specials = [| Float.nan; Float.infinity; Float.neg_infinity; -0.; 0. |] in
  [
    ("distinct", Array.init m (fun _ -> Rng.float rng 1.));
    ("duplicates", Array.init m (fun _ -> float_of_int (Rng.int rng 4)));
    ( "nan and inf",
      Array.init m (fun i ->
          if i mod 3 = 0 then specials.(Rng.int rng (Array.length specials))
          else Rng.float rng 2. -. 1.) );
    ("sorted", Array.init m float_of_int);
    ("reversed", Array.init m (fun i -> float_of_int (m - i)));
    ("constant", Array.make m 1.);
    ("median-of-3 killer", m3_killer m);
    ( "reversed killer",
      let a = m3_killer m in
      Array.init m (fun i -> a.(m - 1 - i)) );
    ("organ pipe", Array.init m (fun i -> float_of_int (min i (m - 1 - i))));
  ]

let test_top_k_by_shapes () =
  List.iter
    (fun m ->
      List.iter
        (fun (shape, weights) ->
          let xs = kvs weights in
          List.iter
            (fun k ->
              if
                not
                  (same_elements (Select.top_k ~cmp:kv_cmp k xs) (by_key k xs))
              then Alcotest.failf "%s m=%d k=%d: top_k_by differs" shape m k)
            (List.sort_uniq Int.compare [ 0; 1; m - 1; m; m + 3; m / 2; 10 ]))
        (select_shapes m))
    [ 0; 1; 2; 3; 16; 17; 100; 521; 2048 ]

let prop_top_k_by_matches_top_k =
  let weight =
    QCheck.Gen.(
      frequency
        [
          (6, map float_of_int (int_range (-3) 3));
          (3, float);
          (1, oneofl [ Float.nan; Float.infinity; Float.neg_infinity; -0. ]);
        ])
  in
  QCheck.Test.make ~count:300 ~name:"top_k_by = top_k ~cmp, same elements"
    QCheck.(pair (make Gen.(list_size (int_bound 300) weight)) small_nat)
    (fun (ws, k) ->
      let xs = kvs (Array.of_list ws) in
      same_elements (Select.top_k ~cmp:kv_cmp k xs) (by_key k xs))

(* [top_k_iter] against the same reference: streamed through a
   callback that counts its calls, it must answer [None] exactly when
   more than [limit] elements are reported, having been stopped on
   element [limit + 1]; otherwise [Some (m, top)] with the elements of
   [top_k ~cmp k], and every element reported. *)
let check_top_k_iter ~k ~limit xs =
  let calls = ref 0 in
  let iter (s : kv Select.sink) =
    List.iter
      (fun e ->
        incr calls;
        s.one e)
      xs
  in
  let m = List.length xs in
  match
    Select.top_k_iter ~key:(fun e -> e.w) ~id:(fun e -> e.id) ~limit k iter
  with
  | None -> m > limit && !calls = limit + 1
  | Some (count, top) ->
      m <= limit && count = m && !calls = m
      && same_elements (Select.top_k ~cmp:kv_cmp k xs) top

let test_top_k_iter_shapes () =
  List.iter
    (fun m ->
      List.iter
        (fun (shape, weights) ->
          let xs = kvs weights in
          let edges = List.sort_uniq Int.compare [ 0; 1; m / 2; m - 1; m; m + 2 ] in
          List.iter
            (fun k ->
              List.iter
                (fun limit ->
                  if k >= 0 && limit >= 0 && not (check_top_k_iter ~k ~limit xs)
                  then
                    Alcotest.failf "%s m=%d k=%d limit=%d: top_k_iter differs"
                      shape m k limit)
                edges)
            (10 :: edges))
        (select_shapes m))
    [ 0; 1; 2; 3; 16; 17; 100; 521 ]

let prop_top_k_iter_matches_top_k =
  let special =
    QCheck.Gen.(
      frequency
        [
          (6, map float_of_int (int_range (-3) 3));
          (3, float);
          (1, oneofl [ Float.nan; Float.infinity; Float.neg_infinity; -0. ]);
        ])
  in
  let shaped =
    QCheck.Gen.(
      pair (int_bound 300) (int_bound 8) >|= fun (m, i) ->
      snd (List.nth (select_shapes m) i))
  in
  let gen =
    QCheck.Gen.(
      oneof [ map Array.of_list (list_size (int_bound 300) special); shaped ]
      >>= fun ws ->
      let m = Array.length ws in
      triple (return ws) (int_bound (m + 2)) (int_bound (m + 2)))
  in
  let print (ws, k, limit) =
    Printf.sprintf "k=%d limit=%d [%s]" k limit
      (String.concat "; " (Array.to_list (Array.map string_of_float ws)))
  in
  QCheck.Test.make ~count:500
    ~name:"top_k_iter = top_k ~cmp, stopped after limit + 1"
    (QCheck.make ~print gen)
    (fun (ws, k, limit) -> check_top_k_iter ~k ~limit (kvs ws))

(* [top_k_iter] over a sink fed a mix of singles and sorted runs
   (runs are slices of a padded array, in the sink's order: weight
   then id, descending; empty runs included).  It must answer [None]
   exactly when more than [limit] elements are handed over, stopping on
   element [limit + 1]: a run it stops in reports [handed () = limit +
   1 - (elements before the run)].  Otherwise it counts every element and
   answers [top_k_by] of the flattened stream, the same physical
   elements in the same order. *)
type piece = Single of kv | Run of kv array * int * int

let check_top_k_iter_runs ~k ~limit pieces =
  let flat =
    List.concat_map
      (function
        | Single e -> [ e ]
        | Run (a, lo, len) -> Array.to_list (Array.sub a lo len))
      pieces
  in
  let m = List.length flat in
  let before = ref 0 and stopped_in_run = ref None in
  let iter (s : kv Select.sink) =
    List.iter
      (function
        | Single e ->
            s.one e;
            incr before
        | Run (a, lo, len) ->
            (try s.run a lo len
             with ex ->
               stopped_in_run := Some (!before, s.handed ());
               raise ex);
            before := !before + len)
      pieces
  in
  match
    Select.top_k_iter ~key:(fun e -> e.w) ~id:(fun e -> e.id) ~limit k iter
  with
  | None -> (
      m > limit
      &&
      match !stopped_in_run with
      | Some (b, handed) -> handed = limit + 1 - b
      | None -> !before = limit)
  | Some (count, top) ->
      m <= limit && count = m && !stopped_in_run = None
      && same_elements (by_key k flat) top

let prop_top_k_iter_runs =
  let weight =
    QCheck.Gen.(
      frequency
        [
          (6, map float_of_int (int_range (-3) 3));
          (2, float);
          (1, oneofl [ Float.nan; Float.infinity; Float.neg_infinity; -0. ]);
        ])
  in
  let piece =
    QCheck.Gen.(
      frequency
        [
          (2, map (fun w -> `Single w) weight);
          ( 3,
            triple (int_bound 3) (list_size (int_bound 24) weight) (int_bound 3)
            >|= fun (pad_lo, ws, pad_hi) -> `Run (pad_lo, ws, pad_hi) );
        ])
  in
  (* Ids are distinct across the whole stream, so equal weights in
     different runs are ordered by id alone. *)
  let build shapes =
    let next = ref 0 in
    let fresh w =
      incr next;
      { w; id = !next }
    in
    List.map
      (function
        | `Single w -> Single (fresh w)
        | `Run (pad_lo, ws, pad_hi) ->
            let run = Array.of_list (List.map fresh ws) in
            Array.sort (fun a b -> kv_cmp b a) run;
            let pad = Array.init (pad_lo + pad_hi) (fun _ -> fresh Float.infinity) in
            let arr =
              Array.concat
                [ Array.sub pad 0 pad_lo; run; Array.sub pad pad_lo pad_hi ]
            in
            Run (arr, pad_lo, Array.length run))
      shapes
  in
  let gen =
    QCheck.Gen.(
      list_size (int_bound 12) piece >>= fun shapes ->
      let pieces = build shapes in
      let m =
        List.fold_left
          (fun acc -> function Single _ -> acc + 1 | Run (_, _, len) -> acc + len)
          0 pieces
      in
      triple (return pieces) (int_bound (m + 2)) (int_bound (m + 2)))
  in
  let print (pieces, k, limit) =
    let kv e = Printf.sprintf "%g#%d" e.w e.id in
    Printf.sprintf "k=%d limit=%d %s" k limit
      (String.concat " "
         (List.map
            (function
              | Single e -> kv e
              | Run (a, lo, len) ->
                  "["
                  ^ String.concat "; " (List.map kv (Array.to_list (Array.sub a lo len)))
                  ^ "]")
            pieces))
  in
  QCheck.Test.make ~count:1000
    ~name:"top_k_iter over runs and singles = top_k_by, run stop handed"
    (QCheck.make ~print gen)
    (fun (pieces, k, limit) -> check_top_k_iter_runs ~k ~limit pieces)

(* Quickselect draws pivots from a per-domain stream with one seed:
   two fresh domains permute the same input identically, however much
   the first one drew. *)
let test_default_rng_per_domain () =
  let input = Array.init 500 (fun i -> (i * 7919) mod 500) in
  let permute () =
    Domain.join
      (Domain.spawn (fun () ->
           let arr = Array.copy input in
           ignore (Select.quickselect ~cmp:Int.compare arr 250);
           for _ = 1 to 10 do
             ignore (Select.quickselect ~cmp:Int.compare (Array.copy input) 17)
           done;
           arr))
  in
  let first = permute () in
  Alcotest.(check (array int)) "fresh domains replay one stream" first
    (permute ())

(* --- Search --- *)

let test_bounds () =
  let arr = [| 1; 3; 3; 5; 7 |] in
  let lb = Search.lower_bound ~cmp:Int.compare arr in
  let ub = Search.upper_bound ~cmp:Int.compare arr in
  Alcotest.(check int) "lb 0" 0 (lb 0);
  Alcotest.(check int) "lb 3" 1 (lb 3);
  Alcotest.(check int) "lb 4" 3 (lb 4);
  Alcotest.(check int) "lb 8" 5 (lb 8);
  Alcotest.(check int) "ub 3" 3 (ub 3);
  Alcotest.(check int) "ub 7" 5 (ub 7);
  Alcotest.(check (option int)) "pred 4"
    (Some 2)
    (Search.predecessor ~cmp:Int.compare arr 4);
  Alcotest.(check (option int)) "pred 0" None
    (Search.predecessor ~cmp:Int.compare arr 0)

let test_binary_search_first () =
  let ok i = i >= 42 in
  Alcotest.(check (option int)) "first" (Some 42)
    (Search.binary_search_first ok 0 100);
  Alcotest.(check (option int)) "none" None
    (Search.binary_search_first ok 0 42);
  Alcotest.(check (option int)) "empty range" None
    (Search.binary_search_first ok 5 5)

(* --- Gen --- *)

let test_distinct_weights () =
  let rng = Rng.create 37 in
  let w = Gen.distinct_weights rng 5000 in
  let sorted = Array.copy w in
  Array.sort Float.compare sorted;
  for i = 1 to Array.length sorted - 1 do
    if sorted.(i) = sorted.(i - 1) then Alcotest.fail "duplicate weight"
  done

let test_intervals_valid () =
  let rng = Rng.create 41 in
  List.iter
    (fun shape ->
      Array.iter
        (fun (lo, hi) ->
          if lo > hi then Alcotest.fail "inverted interval";
          if Float.is_nan lo || Float.is_nan hi then Alcotest.fail "nan")
        (Gen.intervals rng ~shape ~n:2000))
    [ Gen.Short_intervals; Gen.Mixed_intervals; Gen.Nested_intervals ]

let test_nested_intervals_nest () =
  let rng = Rng.create 43 in
  let iv = Gen.intervals rng ~shape:Gen.Nested_intervals ~n:100 in
  (* All nested intervals contain the center. *)
  Array.iter
    (fun (lo, hi) ->
      Alcotest.(check bool) "covers center" true (lo <= 0.5 && hi >= 0.5))
    iv

let test_halfplanes_unit_normal () =
  let rng = Rng.create 47 in
  Array.iter
    (fun (a, b, _) ->
      Alcotest.(check (float 1e-9)) "unit normal" 1. ((a *. a) +. (b *. b)))
    (Gen.halfplanes rng ~n:500)

let test_mix_weights_correlation () =
  let rng = Rng.create 53 in
  let coords = Array.init 2000 (fun i -> float_of_int i /. 2000.) in
  let w = Gen.mix_weights rng (Gen.Correlated 1.) ~coords in
  (* With full correlation, weights must be increasing in coords. *)
  Alcotest.(check bool) "monotone" true
    (Search.is_sorted ~cmp:Float.compare w);
  let w0 = Gen.mix_weights rng Gen.Uniform_weights ~coords in
  Alcotest.(check bool) "uncorrelated is shuffled" false
    (Search.is_sorted ~cmp:Float.compare w0)

(* --- Clock --- *)

(* Monotonic per domain: two domains each take 10^5 back-to-back
   readings and none ever goes backwards. *)
let test_clock_monotonic () =
  let reads () =
    let prev = ref (Clock.now ()) and backwards = ref 0 in
    for _ = 1 to 100_000 do
      let t = Clock.now () in
      if t < !prev then incr backwards;
      prev := t
    done;
    !backwards
  in
  let d1 = Domain.spawn reads and d2 = Domain.spawn reads in
  Alcotest.(check int) "domain 1 never steps back" 0 (Domain.join d1);
  Alcotest.(check int) "domain 2 never steps back" 0 (Domain.join d2)

let test_clock_source_restored () =
  let fake = ref 42.0 in
  Clock.with_source (fun () -> !fake) (fun () ->
      Alcotest.(check (float 0.)) "reads the fake source" 42.0 (Clock.now ());
      fake := 43.5;
      Alcotest.(check (float 0.)) "follows the fake source" 43.5 (Clock.now ()));
  (try Clock.with_source (fun () -> 0.) (fun () -> failwith "boom")
   with Failure _ -> ());
  let a = Clock.now () in
  Unix.sleepf 0.002;
  let b = Clock.now () in
  Alcotest.(check bool) "real source back after a raise" true (b > a && a > 0.)

let () =
  Alcotest.run "topk_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independent" `Quick
            test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int uniform" `Slow test_rng_int_roughly_uniform;
          Alcotest.test_case "bernoulli" `Quick test_rng_bernoulli;
          Alcotest.test_case "sample rate" `Quick test_rng_sample_rate;
          Alcotest.test_case "raw seed-compat" `Quick test_raw_seed_compat;
          Alcotest.test_case "raw reseed" `Quick test_raw_reseed;
        ] );
      ( "heap",
        [
          Alcotest.test_case "drains sorted" `Quick test_heap_sorts;
          Alcotest.test_case "push/pop" `Quick test_heap_push_pop_interleaved;
        ] );
      ( "select",
        [
          Alcotest.test_case "quickselect" `Quick test_quickselect_matches_sort;
          Alcotest.test_case "median of medians" `Quick
            test_median_of_medians_matches_sort;
          Alcotest.test_case "top_k" `Quick test_top_k;
          Alcotest.test_case "nth_largest" `Quick test_nth_largest;
          QCheck_alcotest.to_alcotest prop_top_k_matches_sort;
          Alcotest.test_case "top_k_by on adversarial shapes" `Quick
            test_top_k_by_shapes;
          QCheck_alcotest.to_alcotest prop_top_k_by_matches_top_k;
          Alcotest.test_case "top_k_iter on adversarial shapes" `Quick
            test_top_k_iter_shapes;
          QCheck_alcotest.to_alcotest prop_top_k_iter_matches_top_k;
          Alcotest.test_case "default rng per domain" `Quick
            test_default_rng_per_domain;
          QCheck_alcotest.to_alcotest prop_top_k_iter_runs;
        ] );
      ( "search",
        [
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "binary_search_first" `Quick
            test_binary_search_first;
        ] );
      ( "gen",
        [
          Alcotest.test_case "distinct weights" `Quick test_distinct_weights;
          Alcotest.test_case "intervals valid" `Quick test_intervals_valid;
          Alcotest.test_case "nested intervals nest" `Quick
            test_nested_intervals_nest;
          Alcotest.test_case "halfplane normals" `Quick
            test_halfplanes_unit_normal;
          Alcotest.test_case "weight correlation" `Quick
            test_mix_weights_correlation;
        ] );
      ( "clock",
        [
          Alcotest.test_case "monotonic across 2 domains" `Quick
            test_clock_monotonic;
          Alcotest.test_case "source seam restores on raise" `Quick
            test_clock_source_restored;
        ] );
    ]
