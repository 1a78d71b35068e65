(* Cross-problem conformance laws.

   Every problem instance must satisfy the same contracts the
   reductions rely on; this suite states them once as functors and
   applies them to all eight problems.  Notably:

   - tau-inclusion: a prioritized query with tau = w(e) for a matching
     element e MUST report e (the reductions always query at the exact
     weight of a sampled element — an exclusive comparison here is the
     classic off-by-one);
   - monitored exactness: [All] answers are complete, [Truncated]
     answers have exactly limit+1 elements;
   - top-k prefix monotonicity: top-k is a prefix of top-(k+1). *)

module Sigs = Topk_core.Sigs
module Rng = Topk_util.Rng
module Gen = Topk_util.Gen

module type INSTANCE = sig
  module P : Sigs.PROBLEM

  module Pri : Sigs.PRIORITIZED with module P = P

  module Max : Sigs.MAX with module P = P

  module Topk : Sigs.TOPK with module P = P

  val name : string

  val params : Topk_core.Params.t

  val elements : Rng.t -> n:int -> P.elem array

  val queries : Rng.t -> n:int -> P.query array
end

module Conformance (I : INSTANCE) = struct
  module Oracle = Topk_core.Oracle.Make (I.P)
  module W = Sigs.Weight_order (I.P)

  let ids l = List.sort Int.compare (List.map I.P.id l)

  let setup seed n =
    let rng = Rng.create seed in
    let elems = I.elements rng ~n in
    (elems, Oracle.build elems, I.queries rng ~n:25)

  let test_tau_inclusion () =
    let elems, oracle, queries = setup 701 300 in
    let s = I.Pri.build elems in
    Array.iter
      (fun q ->
        (* tau equal to the weight of each of a few matching elements:
           that element must be reported. *)
        let matching = Oracle.prioritized oracle q ~tau:Float.neg_infinity in
        List.iteri
          (fun i e ->
            if i mod 7 = 0 then begin
              let tau = I.P.weight e in
              let got = I.Pri.query s q ~tau in
              Alcotest.(check bool)
                (Printf.sprintf "%s: tau-inclusion" I.name)
                true
                (List.exists (fun x -> I.P.id x = I.P.id e) got);
              (* And the result is exactly the oracle's. *)
              Alcotest.(check (list int))
                (Printf.sprintf "%s: tau-exact" I.name)
                (ids (Oracle.prioritized oracle q ~tau))
                (ids got)
            end)
          matching)
      queries

  let test_monitored_exactness () =
    let elems, oracle, queries = setup 703 300 in
    let s = I.Pri.build elems in
    Array.iter
      (fun q ->
        let total = Oracle.count oracle q in
        (match I.Pri.query_monitored s q ~tau:Float.neg_infinity ~limit:total with
         | Sigs.All got ->
             Alcotest.(check (list int))
               (Printf.sprintf "%s: monitored All complete" I.name)
               (ids (Oracle.prioritized oracle q ~tau:Float.neg_infinity))
               (ids got)
         | Sigs.Truncated _ ->
             Alcotest.failf "%s: truncation below the result size" I.name);
        if total > 2 then
          match
            I.Pri.query_monitored s q ~tau:Float.neg_infinity
              ~limit:(total - 2)
          with
          | Sigs.Truncated got ->
              Alcotest.(check int)
                (Printf.sprintf "%s: truncated = limit+1" I.name)
                (total - 1) (List.length got)
          | Sigs.All _ ->
              Alcotest.failf "%s: missed truncation" I.name)
      queries

  (* Monitored boundary laws (the Section 3.2 certification hinges on
     these exact counts):
     - [limit >= t] terminates by itself: [All], complete — including
       [limit = t] exactly, where the implementation must notice
       completion rather than report a spurious cutoff;
     - [limit < t] is a certified cutoff: [Truncated] with {e exactly}
       [limit + 1] elements, every one a genuine match at [tau] —
       including [limit = 0] (payload of exactly one element) and
       [limit = t - 1] (payload of all [t], still flagged, because
       [All] would falsely certify [t <= limit]);
     - an empty answer can never truncate: [All []] for any limit. *)
  let test_monitored_edge_cases () =
    let elems, oracle, queries = setup 717 300 in
    let s = I.Pri.build elems in
    Array.iter
      (fun q ->
        let truth = ids (Oracle.prioritized oracle q ~tau:Float.neg_infinity) in
        let t = List.length truth in
        (* Cutoffs: exactly limit+1 genuine matches. *)
        List.sort_uniq Int.compare [ 0; 1; t / 2; t - 1 ]
        |> List.iter (fun limit ->
               if limit >= 0 && limit < t then
                 match
                   I.Pri.query_monitored s q ~tau:Float.neg_infinity ~limit
                 with
                 | Sigs.All _ ->
                     Alcotest.failf "%s: limit=%d < t=%d must truncate" I.name
                       limit t
                 | Sigs.Truncated got ->
                     Alcotest.(check int)
                       (Printf.sprintf "%s: limit=%d payload is limit+1" I.name
                          limit)
                       (limit + 1) (List.length got);
                     List.iter
                       (fun e ->
                         Alcotest.(check bool)
                           (Printf.sprintf "%s: truncated element matches"
                              I.name)
                           true
                           (List.mem (I.P.id e) truth))
                       got);
        (* Termination: limit = t and beyond return the complete answer. *)
        List.iter
          (fun limit ->
            match I.Pri.query_monitored s q ~tau:Float.neg_infinity ~limit with
            | Sigs.All got ->
                Alcotest.(check (list int))
                  (Printf.sprintf "%s: limit=%d >= t=%d complete" I.name limit
                     t)
                  truth (ids got)
            | Sigs.Truncated _ ->
                Alcotest.failf "%s: limit=%d >= t=%d must not truncate" I.name
                  limit t)
          [ t; t + 9 ])
      queries;
    (* Empty matching set: All [] regardless of limit. *)
    let rng = Rng.create 719 in
    let q0 = (I.queries rng ~n:1).(0) in
    match I.Pri.query_monitored (I.Pri.build [||]) q0 ~tau:0. ~limit:0 with
    | Sigs.All [] -> ()
    | Sigs.All _ -> Alcotest.failf "%s: empty build reported elements" I.name
    | Sigs.Truncated _ ->
        Alcotest.failf "%s: empty build truncated at limit=0" I.name

  (* [visit] is the reporting primitive: at tau = -inf and at a
     matching element's weight it reports exactly [query]'s set (and
     the oracle's), a callback that raises stops it at once, and the
     [query_monitored] derived from it keeps its contract at limits
     0, 1, t - 1 and t. *)
  let test_visit_law () =
    let elems, oracle, queries = setup 723 300 in
    let s = I.Pri.build elems in
    Array.iter
      (fun q ->
        let truth = ids (Oracle.prioritized oracle q ~tau:Float.neg_infinity) in
        let t = List.length truth in
        let taus =
          match Oracle.prioritized oracle q ~tau:Float.neg_infinity with
          | [] -> [ Float.neg_infinity ]
          | matching ->
              let w = List.sort Float.compare (List.map I.P.weight matching) in
              [ Float.neg_infinity; List.nth w (List.length w / 2) ]
        in
        List.iter
          (fun tau ->
            let visited = ref [] in
            I.Pri.visit s q ~tau (Sigs.sink (fun e -> visited := e :: !visited));
            Alcotest.(check (list int))
              (Printf.sprintf "%s: visit = query" I.name)
              (ids (I.Pri.query s q ~tau))
              (ids !visited);
            Alcotest.(check (list int))
              (Printf.sprintf "%s: visit = oracle" I.name)
              (ids (Oracle.prioritized oracle q ~tau))
              (ids !visited))
          taus;
        let exception Stop in
        let calls = ref 0 in
        (match
           I.Pri.visit s q ~tau:Float.neg_infinity
             (Sigs.sink (fun _ ->
                  incr calls;
                  raise Stop))
         with
         | () -> Alcotest.(check int) (I.name ^ ": no match, no call") 0 t
         | exception Stop ->
             Alcotest.(check int) (I.name ^ ": stopped at once") 1 !calls);
        List.iter
          (fun limit ->
            if limit >= 0 then
              match I.Pri.query_monitored s q ~tau:Float.neg_infinity ~limit with
              | Sigs.All got when limit >= t ->
                  Alcotest.(check (list int))
                    (Printf.sprintf "%s: limit=%d >= t=%d complete" I.name
                       limit t)
                    truth (ids got)
              | Sigs.Truncated got when limit < t ->
                  Alcotest.(check int)
                    (Printf.sprintf "%s: limit=%d < t=%d payload" I.name limit
                       t)
                    (limit + 1) (List.length got);
                  List.iter
                    (fun e ->
                      if not (List.mem (I.P.id e) truth) then
                        Alcotest.failf "%s: truncated payload not a match"
                          I.name)
                    got
              | Sigs.All _ | Sigs.Truncated _ ->
                  Alcotest.failf "%s: limit=%d, t=%d: wrong verdict" I.name
                    limit t)
          [ 0; 1; t - 1; t ])
      queries

  let test_max_agrees () =
    let elems, oracle, queries = setup 707 300 in
    let m = I.Max.build elems in
    Array.iter
      (fun q ->
        Alcotest.(check (option int))
          (Printf.sprintf "%s: max" I.name)
          (Option.map I.P.id (Oracle.max oracle q))
          (Option.map I.P.id (I.Max.query m q)))
      queries

  let test_topk_prefix_monotone () =
    let elems, oracle, queries = setup 709 250 in
    ignore oracle;
    let t = I.Topk.build ~params:I.params elems in
    Array.iter
      (fun q ->
        let prev = ref [] in
        List.iter
          (fun k ->
            let cur = List.map I.P.id (I.Topk.query t q ~k) in
            let plen = List.length !prev in
            Alcotest.(check (list int))
              (Printf.sprintf "%s: top-%d extends top-k prefix" I.name k)
              !prev
              (List.filteri (fun i _ -> i < plen) cur);
            prev := cur)
          [ 1; 2; 4; 8; 32; 128 ])
      queries

  let test_topk_sorted_and_distinct () =
    let elems, _, queries = setup 711 250 in
    let t = I.Topk.build ~params:I.params elems in
    Array.iter
      (fun q ->
        let got = I.Topk.query t q ~k:40 in
        let rec check_sorted = function
          | a :: (b :: _ as rest) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: descending" I.name)
                true
                (W.compare a b > 0);
              check_sorted rest
          | _ -> ()
        in
        check_sorted got;
        let uniq = List.sort_uniq Int.compare (List.map I.P.id got) in
        Alcotest.(check int)
          (Printf.sprintf "%s: no duplicates" I.name)
          (List.length got) (List.length uniq))
      queries

  (* Uniform k edge cases (the satellite contract stated on
     [Sigs.TOPK.query]): k <= 0 answers [] and charges nothing; k at
     or beyond the number of matches answers every matching element,
     sorted — for every registered TOPK implementation alike. *)
  let test_k_edge_cases () =
    let elems, oracle, queries = setup 715 200 in
    let t = I.Topk.build ~params:I.params elems in
    Array.iter
      (fun q ->
        List.iter
          (fun k ->
            let got, cost =
              Topk_em.Stats.measure (fun () -> I.Topk.query t q ~k)
            in
            Alcotest.(check int)
              (Printf.sprintf "%s: k=%d answers []" I.name k)
              0 (List.length got);
            Alcotest.(check int)
              (Printf.sprintf "%s: k=%d charges no I/O" I.name k)
              0 cost.Topk_em.Stats.ios;
            Alcotest.(check int)
              (Printf.sprintf "%s: k=%d scans nothing" I.name k)
              0 cost.Topk_em.Stats.scanned)
          [ 0; -1; -17 ];
        let m = Oracle.count oracle q in
        let all = List.map I.P.id (Oracle.top_k oracle q ~k:(m + 1)) in
        List.iter
          (fun k ->
            Alcotest.(check (list int))
              (Printf.sprintf "%s: k=%d >= matches reports all, sorted" I.name
                 k)
              all
              (List.map I.P.id (I.Topk.query t q ~k)))
          [ m; m + 1; m + 100 ])
      queries

  let test_empty_input () =
    let t = I.Topk.build ~params:I.params [||] in
    let s = I.Pri.build [||] in
    let m = I.Max.build [||] in
    let rng = Rng.create 713 in
    Array.iter
      (fun q ->
        Alcotest.(check int)
          (Printf.sprintf "%s: empty topk" I.name)
          0
          (List.length (I.Topk.query t q ~k:5));
        Alcotest.(check int)
          (Printf.sprintf "%s: empty pri" I.name)
          0
          (List.length (I.Pri.query s q ~tau:Float.neg_infinity));
        Alcotest.(check bool)
          (Printf.sprintf "%s: empty max" I.name)
          true
          (I.Max.query m q = None))
      (I.queries rng ~n:5)

  let suite =
    [
      Alcotest.test_case "tau inclusion at exact weights" `Quick
        test_tau_inclusion;
      Alcotest.test_case "monitored exactness" `Quick
        test_monitored_exactness;
      Alcotest.test_case "monitored edge cases (limit 0, t-1, >= t)" `Quick
        test_monitored_edge_cases;
      Alcotest.test_case "visit = query; derived monitor at 0, 1, t-1, t"
        `Quick test_visit_law;
      Alcotest.test_case "max agrees with oracle" `Quick test_max_agrees;
      Alcotest.test_case "top-k prefix monotone" `Quick
        test_topk_prefix_monotone;
      Alcotest.test_case "top-k sorted, distinct" `Quick
        test_topk_sorted_and_distinct;
      Alcotest.test_case "k edge cases (k <= 0, k >= matches)" `Quick
        test_k_edge_cases;
      Alcotest.test_case "empty input" `Quick test_empty_input;
    ]
end

(* --- the dynamic law ---

   Every instance exposing updates must satisfy one more contract:
   after an arbitrary interleaving of inserts and deletes, top-k
   queries answer exactly as a from-scratch oracle over the surviving
   set (insert*; delete*; query == oracle on survivors).  This is the
   law the ingest bench checks under concurrency; here it is stated
   sequentially over every updatable implementation. *)

module type DYN_INSTANCE = sig
  module P : Sigs.PROBLEM

  type t

  val name : string

  val build : P.elem array -> t

  val insert : t -> P.elem -> unit

  val delete : t -> P.elem -> unit

  val query : t -> P.query -> k:int -> P.elem list

  val fresh_elements : Rng.t -> first_id:int -> n:int -> P.elem array
  (** [n] elements with ids [first_id .. first_id + n - 1] — the law
      interleaves several generations, so ids must not collide across
      calls (the static generators restart ids at 1 every call). *)

  val queries : Rng.t -> n:int -> P.query array
end

module Dynamic_law (D : DYN_INSTANCE) = struct
  module Oracle = Topk_core.Oracle.Make (D.P)

  let check_survivors s survivors queries =
    let live = Array.of_list (Hashtbl.fold (fun _ e acc -> e :: acc) survivors []) in
    let oracle = Oracle.build live in
    Array.iter
      (fun q ->
        List.iter
          (fun k ->
            Alcotest.(check (list int))
              (Printf.sprintf "%s: dynamic law (k=%d)" D.name k)
              (List.map D.P.id (Oracle.top_k oracle q ~k))
              (List.map D.P.id (D.query s q ~k)))
          [ 1; 5; 60 ])
      queries

  let test_dynamic_law () =
    let rng = Rng.create 721 in
    let next_id = ref 1 in
    let elements n =
      let batch = D.fresh_elements rng ~first_id:!next_id ~n in
      next_id := !next_id + n;
      batch
    in
    let base = elements 120 in
    let s = D.build base in
    let survivors = Hashtbl.create 256 in
    Array.iter (fun e -> Hashtbl.replace survivors (D.P.id e) e) base;
    let queries = D.queries rng ~n:12 in
    check_survivors s survivors queries;
    for _round = 1 to 3 do
      (* A burst of fresh inserts... *)
      let batch = elements 40 in
      Array.iter
        (fun e ->
          D.insert s e;
          Hashtbl.replace survivors (D.P.id e) e)
        batch;
      (* ...then delete a random half of the current survivors. *)
      let live = Array.of_list (Hashtbl.fold (fun _ e acc -> e :: acc) survivors []) in
      Array.iter
        (fun e ->
          if Rng.bernoulli rng 0.5 then begin
            D.delete s e;
            Hashtbl.remove survivors (D.P.id e)
          end)
        live;
      check_survivors s survivors queries
    done;
    (* Drain to empty: the law holds at the boundary too. *)
    Hashtbl.iter (fun _ e -> D.delete s e) survivors;
    Hashtbl.reset survivors;
    check_survivors s survivors queries

  let suite =
    [ Alcotest.test_case "insert*; delete*; query == oracle" `Quick
        test_dynamic_law ]
end

(* --- the eight instances --- *)

module Interval_instance = struct
  module P = Topk_interval.Problem
  module Pri = Topk_interval.Seg_stab
  module Max = Topk_interval.Slab_max
  module Topk = Topk_interval.Instances.Topk_t2

  let name = "interval"

  let params = Topk_interval.Instances.params ()

  let elements rng ~n =
    Topk_interval.Interval.of_spans rng
      (Gen.intervals rng ~shape:Gen.Mixed_intervals ~n)

  let queries rng ~n = Gen.stab_queries rng ~n
end

module Range_instance = struct
  module P = Topk_range.Problem
  module Pri = Topk_range.Range_pri
  module Max = Topk_range.Range_max
  module Topk = Topk_range.Instances.Topk_t2

  let name = "range"

  let params = Topk_range.Instances.params ()

  let elements rng ~n =
    Topk_range.Wpoint.of_positions rng
      (Array.init n (fun _ -> Rng.uniform rng))

  let queries rng ~n =
    Array.init n (fun _ ->
        let a = Rng.uniform rng and b = Rng.uniform rng in
        (Float.min a b, Float.max a b))
end

module Enclosure_instance = struct
  module P = Topk_enclosure.Problem
  module Pri = Topk_enclosure.Enc_pri
  module Max = Topk_enclosure.Enc_max
  module Topk = Topk_enclosure.Instances.Topk_t2

  let name = "enclosure"

  let params = Topk_enclosure.Instances.params ()

  let elements rng ~n = Topk_enclosure.Rect.of_boxes rng (Gen.rectangles rng ~n)

  let queries rng ~n =
    Array.init n (fun _ -> (Rng.uniform rng, Rng.uniform rng))
end

module Dominance_instance = struct
  module P = Topk_dominance.Problem
  module Pri = Topk_dominance.Dom_pri
  module Max = Topk_dominance.Dom_max
  module Topk = Topk_dominance.Instances.Topk_t2

  let name = "dominance"

  let params = Topk_dominance.Instances.params ()

  let elements rng ~n =
    Topk_dominance.Point3.of_coords rng
      (Array.init n (fun _ ->
           (Rng.uniform rng, Rng.uniform rng, Rng.uniform rng)))

  let queries rng ~n =
    Array.init n (fun _ ->
        (Rng.uniform rng, Rng.uniform rng, Rng.uniform rng))
end

module Halfplane_instance = struct
  module P = Topk_halfspace.Hp_problem
  module Pri = Topk_halfspace.Hp_pri
  module Max = Topk_halfspace.Hp_max
  module Topk = Topk_halfspace.Instances.Topk2_t2

  let name = "halfplane"

  let params = Topk_halfspace.Instances.params2 ()

  let elements rng ~n =
    Topk_geom.Point2.of_coords rng
      (Array.map (fun c -> (c.(0), c.(1))) (Gen.points rng ~n ~d:2))

  let queries rng ~n =
    Array.map Topk_geom.Halfplane.of_triple (Gen.halfplanes rng ~n)
end

module Kd_halfspace_instance = struct
  module P = Topk_halfspace.Instances.Hs_problem
  module Pri = Topk_halfspace.Instances.Kd_hs_pri
  module Max = Topk_halfspace.Instances.Kd_hs_max
  module Topk = Topk_halfspace.Instances.Topkd_t2

  let name = "kd-halfspace-d3"

  let params = Topk_halfspace.Instances.paramsd ~d:3

  let elements rng ~n = Topk_halfspace.Pointd.of_coords rng (Gen.points rng ~n ~d:3)

  let queries rng ~n =
    Array.init n (fun _ ->
        let normal = Array.init 3 (fun _ -> Rng.uniform rng -. 0.5) in
        if Array.for_all (fun a -> Float.abs a < 1e-9) normal then
          normal.(0) <- 1.;
        let anchor = Array.init 3 (fun _ -> Rng.uniform rng) in
        let c = ref 0. in
        Array.iteri (fun i a -> c := !c +. (a *. anchor.(i))) normal;
        Topk_halfspace.Predicates.Halfspace.make ~normal ~c:!c)
end

module Ball_instance = struct
  module P = Topk_halfspace.Instances.Ball_problem
  module Pri = Topk_halfspace.Instances.Kd_ball_pri
  module Max = Topk_halfspace.Instances.Kd_ball_max
  module Topk = Topk_halfspace.Instances.Topk_ball_t2

  let name = "ball-d3"

  let params = Topk_halfspace.Instances.paramsd ~d:3

  let elements rng ~n = Topk_halfspace.Pointd.of_coords rng (Gen.points rng ~n ~d:3)

  let queries rng ~n =
    Array.map
      (fun (c, r) -> Topk_halfspace.Predicates.Ball.make ~center:c ~radius:r)
      (Gen.balls rng ~n ~d:3)
end

module Ortho_instance = struct
  module P = Topk_ortho.Problem
  module Pri = Topk_ortho.Ortho_pri
  module Max = Topk_ortho.Ortho_max
  module Topk = Topk_ortho.Instances.Topk_t2

  let name = "ortho"

  let params = Topk_ortho.Instances.params ()

  let elements rng ~n =
    Topk_geom.Point2.of_coords rng
      (Array.map (fun c -> (c.(0), c.(1))) (Gen.points rng ~n ~d:2))

  let queries rng ~n =
    Array.init n (fun _ ->
        let x1 = Rng.uniform rng and x2 = Rng.uniform rng in
        let y1 = Rng.uniform rng and y2 = Rng.uniform rng in
        (Float.min x1 x2, Float.max x1 x2, Float.min y1 y2, Float.max y1 y2))
end

(* The same interval problem under the other TOPK reductions, so the
   k-edge and ordering laws are checked against every implementation
   family (Theorem 1, Theorem 2, restricted-jump baseline, counting
   variant, naive scan), not just the default Theorem 2 build. *)
module Interval_t1_instance = struct
  include Interval_instance
  module Topk = Topk_interval.Instances.Topk_t1

  let name = "interval-t1"
end

module Interval_rj_instance = struct
  include Interval_instance
  module Topk = Topk_interval.Instances.Topk_rj

  let name = "interval-rj"
end

module Interval_rjc_instance = struct
  include Interval_instance
  module Topk = Topk_interval.Instances.Topk_rj_counting

  let name = "interval-rj-counting"
end

module Interval_naive_instance = struct
  include Interval_instance
  module Topk = Topk_interval.Instances.Topk_naive

  let name = "interval-naive"
end

(* The logarithmic-method wrapper is a PRIORITIZED structure in its
   own right (its [visit] filters dead elements), and the dynamic
   Theorem 2 a TOPK one: both keep the static laws. *)
module Interval_dyn_instance = struct
  include Interval_instance
  module Pri = Topk_interval.Instances.Dyn_pri
  module Topk = Topk_interval.Instances.Dyn_topk

  let name = "interval-dyn"
end

(* --- the updatable instances --- *)

(* Id-disjoint generators: the dynamic law interleaves several
   generations of elements, and the static [of_spans]/[of_positions]
   helpers restart ids at 1 on every call — colliding ids would make
   an insert a silent no-op in structures that key liveness by id. *)
let fresh_intervals rng ~first_id ~n =
  Array.init n (fun i ->
      let id = first_id + i in
      let lo = Rng.uniform rng in
      let hi = Float.min 1.0 (lo +. 0.02 +. (0.4 *. Rng.uniform rng)) in
      Topk_interval.Interval.make ~id ~lo ~hi
        ~weight:(float_of_int id +. (0.5 *. Rng.uniform rng))
        ())

let fresh_wpoints rng ~first_id ~n =
  Array.init n (fun i ->
      let id = first_id + i in
      Topk_range.Wpoint.make ~id ~pos:(Rng.uniform rng)
        ~weight:(float_of_int id +. (0.5 *. Rng.uniform rng))
        ())

module Dyn_topk_instance = struct
  module P = Topk_interval.Problem
  module DT = Topk_interval.Instances.Dyn_topk

  type t = DT.t

  let name = "dyn-theorem2(interval)"

  let build elems = DT.build ~params:(Topk_interval.Instances.params ()) elems

  let insert = DT.insert

  let delete = DT.delete

  let query = DT.query

  let fresh_elements = fresh_intervals

  let queries = Interval_instance.queries
end

(* The ingest wrapper makes any static TOPK updatable; sweep it over
   several structure families and problems.  Tiny buffers force the
   law through seals and background-free inline merges, not just the
   in-memory log. *)

module Ingest_t2_instance = struct
  module P = Topk_interval.Problem
  module Ing = Topk_ingest.Ingest.Make (Topk_interval.Instances.Topk_t2)

  type t = Ing.t

  let name = "ingest(interval-t2)"

  let build elems =
    Ing.create ~params:(Topk_interval.Instances.params ()) ~buffer_cap:16
      ~fanout:2 elems

  let insert = Ing.insert

  let delete = Ing.delete

  let query = Ing.query

  let fresh_elements = fresh_intervals

  let queries = Interval_instance.queries
end

module Ingest_naive_instance = struct
  module P = Topk_interval.Problem
  module Ing = Topk_ingest.Ingest.Make (Topk_interval.Instances.Topk_naive)

  type t = Ing.t

  let name = "ingest(interval-naive)"

  let build elems =
    Ing.create ~params:(Topk_interval.Instances.params ()) ~buffer_cap:8
      ~fanout:3 elems

  let insert = Ing.insert

  let delete = Ing.delete

  let query = Ing.query

  let fresh_elements = fresh_intervals

  let queries = Interval_instance.queries
end

module Ingest_range_instance = struct
  module P = Topk_range.Problem
  module Ing = Topk_ingest.Ingest.Make (Topk_range.Instances.Topk_t2)

  type t = Ing.t

  let name = "ingest(range-t2)"

  let build elems =
    Ing.create ~params:(Topk_range.Instances.params ()) ~buffer_cap:16
      ~fanout:2 elems

  let insert = Ing.insert

  let delete = Ing.delete

  let query = Ing.query

  let fresh_elements = fresh_wpoints

  let queries = Range_instance.queries
end

(* Ingest over a structure that is itself dynamic: composition must
   still satisfy the law (runs are rebuilt wholesale, the inner update
   support is simply unused). *)
module Ingest_dyn_instance = struct
  module P = Topk_interval.Problem
  module Ing = Topk_ingest.Ingest.Make (Topk_interval.Instances.Dyn_topk)

  type t = Ing.t

  let name = "ingest(dyn-theorem2)"

  let build elems =
    Ing.create ~params:(Topk_interval.Instances.params ()) ~buffer_cap:32
      ~fanout:2 elems

  let insert = Ing.insert

  let delete = Ing.delete

  let query = Ing.query

  let fresh_elements = fresh_intervals

  let queries = Interval_instance.queries
end

module C_interval = Conformance (Interval_instance)
module C_interval_t1 = Conformance (Interval_t1_instance)
module C_interval_rj = Conformance (Interval_rj_instance)
module C_interval_rjc = Conformance (Interval_rjc_instance)
module C_interval_naive = Conformance (Interval_naive_instance)
module C_interval_dyn = Conformance (Interval_dyn_instance)
module C_range = Conformance (Range_instance)
module C_enclosure = Conformance (Enclosure_instance)
module C_dominance = Conformance (Dominance_instance)
module C_halfplane = Conformance (Halfplane_instance)
module C_kd = Conformance (Kd_halfspace_instance)
module C_ball = Conformance (Ball_instance)
module C_ortho = Conformance (Ortho_instance)
module DL_dyn_topk = Dynamic_law (Dyn_topk_instance)
module DL_ingest_t2 = Dynamic_law (Ingest_t2_instance)
module DL_ingest_naive = Dynamic_law (Ingest_naive_instance)
module DL_ingest_range = Dynamic_law (Ingest_range_instance)
module DL_ingest_dyn = Dynamic_law (Ingest_dyn_instance)

let () =
  Alcotest.run "topk_conformance"
    [
      ("interval", C_interval.suite);
      ("interval-t1", C_interval_t1.suite);
      ("interval-rj", C_interval_rj.suite);
      ("interval-rj-counting", C_interval_rjc.suite);
      ("interval-naive", C_interval_naive.suite);
      ("interval-dyn", C_interval_dyn.suite);
      ("range", C_range.suite);
      ("enclosure", C_enclosure.suite);
      ("dominance", C_dominance.suite);
      ("halfplane", C_halfplane.suite);
      ("kd-halfspace", C_kd.suite);
      ("ball", C_ball.suite);
      ("ortho", C_ortho.suite);
      ("dynamic:dyn-theorem2", DL_dyn_topk.suite);
      ("dynamic:ingest-interval-t2", DL_ingest_t2.suite);
      ("dynamic:ingest-interval-naive", DL_ingest_naive.suite);
      ("dynamic:ingest-range-t2", DL_ingest_range.suite);
      ("dynamic:ingest-dyn-theorem2", DL_ingest_dyn.suite);
    ]
