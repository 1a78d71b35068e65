(* Measurement primitives of the serving benchmark: the monotonic
   clock, growable sample vectors, seeded reservoir sampling, trace
   self-time accounting and the result line. *)

module Rng = Topk_util.Rng
module Tr = Topk_trace.Trace

(* Microseconds on the monotonic clock (CLOCK_MONOTONIC via bechamel). *)
let now_us () = Int64.to_float (Monotonic_clock.now ()) /. 1e3

(* A growable vector of float samples.  The samples live in a
   Bigarray, outside the OCaml heap, so a run's millions of latency
   samples do not show up in [heap_peak_mb]. *)
module Vec = struct
  open Bigarray

  type t = { mutable a : (float, float64_elt, c_layout) Array1.t; mutable n : int }

  let create () = { a = Array1.create float64 c_layout 1024; n = 0 }

  let push v x =
    if v.n = Array1.dim v.a then begin
      let b = Array1.create float64 c_layout (2 * v.n) in
      Array1.blit v.a (Array1.sub b 0 v.n);
      v.a <- b
    end;
    Array1.unsafe_set v.a v.n x;
    v.n <- v.n + 1

  let length v = v.n

  let sum v =
    let s = ref 0. in
    for j = 0 to v.n - 1 do
      s := !s +. Array1.get v.a j
    done;
    !s

  let mean v = if v.n = 0 then 0. else sum v /. float_of_int v.n

  (* Nearest-rank percentiles, each [q] in [0,1], of the samples from
     index [from] on; 0 when there are none. *)
  let percentiles ?(from = 0) v qs =
    let n = v.n - from in
    if n <= 0 then List.map (fun _ -> 0.) qs
    else begin
      let s = Array.init n (fun j -> Array1.get v.a (from + j)) in
      Array.sort Float.compare s;
      List.map
        (fun q ->
          let r = int_of_float (Float.ceil (q *. float_of_int n)) in
          s.(Int.max 0 (Int.min (n - 1) (r - 1))))
        qs
    end

  let percentile v q = List.hd (percentiles v [ q ])
end

let median = function
  | [] -> 0.
  | l ->
      let s = Array.of_list l in
      Array.sort Float.compare s;
      let n = Array.length s in
      if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.

(* A uniform sample of fixed capacity over a stream of unknown length
   (Algorithm R), driven by its own seeded generator.  [offer] takes a
   thunk so items that are not kept are never built. *)
module Reservoir = struct
  type 'a t = {
    rng : Rng.t;
    items : 'a option array;
    mutable seen : int;
  }

  let create ~seed cap = { rng = Rng.create seed; items = Array.make cap None; seen = 0 }

  let offer r f =
    let cap = Array.length r.items in
    (if r.seen < cap then r.items.(r.seen) <- Some (f ())
     else
       let j = Rng.int r.rng (r.seen + 1) in
       if j < cap then r.items.(j) <- Some (f ()));
    r.seen <- r.seen + 1

  let to_list r = Array.to_list r.items |> List.filter_map Fun.id
end

(* Per-span-name totals over the traces drained from [Trace.Store]:
   self time (duration minus the part its children cover), count and
   total duration, plus the queue wait that every interactive-lane
   [sched.dispatch] event records. *)
module Spans = struct
  type t = {
    self_us : (string, float) Hashtbl.t;
    dur_us : (string, float) Hashtbl.t;
    count : (string, int) Hashtbl.t;
    queued_us : Vec.t;
  }

  let create () =
    {
      self_us = Hashtbl.create 32;
      dur_us = Hashtbl.create 32;
      count = Hashtbl.create 32;
      queued_us = Vec.create ();
    }

  let bump tbl name v =
    Hashtbl.replace tbl name (v +. Option.value ~default:0. (Hashtbl.find_opt tbl name))

  let rec walk acc (sp : Tr.span) =
    let d = Tr.duration_us sp in
    let covered =
      List.fold_left (fun a c -> a +. Tr.duration_us c) 0. sp.Tr.children
    in
    bump acc.self_us sp.Tr.name (Float.max 0. (d -. covered));
    bump acc.dur_us sp.Tr.name d;
    Hashtbl.replace acc.count sp.Tr.name
      (1 + Option.value ~default:0 (Hashtbl.find_opt acc.count sp.Tr.name));
    (if sp.Tr.name = "sched.dispatch" && Tr.attr_str sp "lane" = Some "interactive"
     then
       match Tr.attr_int sp "queued_us" with
       | Some q -> Vec.push acc.queued_us (float_of_int q)
       | None -> ());
    List.iter (walk acc) sp.Tr.children

  (* Move every completed trace out of the store into the totals. *)
  let drain acc =
    let traces = Tr.Store.recent () in
    Tr.Store.clear ();
    List.iter (fun (tr : Tr.t) -> walk acc tr.Tr.root) traces

  let self_us acc name = Option.value ~default:0. (Hashtbl.find_opt acc.self_us name)
  let dur_us acc name = Option.value ~default:0. (Hashtbl.find_opt acc.dur_us name)
  let count acc name = Option.value ~default:0 (Hashtbl.find_opt acc.count name)
end

(* GC counters of the whole process. *)
type gc = { minor : float; promoted : float; majors : int }

let gc_now () =
  let s = Gc.quick_stat () in
  { minor = s.Gc.minor_words; promoted = s.Gc.promoted_words; majors = s.Gc.major_collections }

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* One reported metric. *)
type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

(* The result object the benchmark prints as its last line. *)
let result_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun { name; value; unit_ } ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
          (json_float value) unit_)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " fields)
