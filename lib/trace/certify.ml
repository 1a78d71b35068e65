(* Cost certification.  See certify.mli for the contract. *)

type theorem = T1 | T2 | Sharded | Dynamic of theorem

type model = {
  instance : string;
  theorem : theorem;
  n : int;
  b : int;
  shards : int;
  q_pri : float;
  q_max : float;
  c : float;
  margin : float;
}

type verdict = {
  v_instance : string;
  v_measured : int;
  v_bound : float;
  v_ok : bool;
}

let rec theorem_name = function
  | T1 -> "theorem1"
  | T2 -> "theorem2"
  | Sharded -> "sharded"
  | Dynamic inner -> "dynamic(" ^ theorem_name inner ^ ")"

let out_term m ~k = float_of_int k /. float_of_int m.b +. 1.

let rec normalizer m ~k ~visited =
  match m.theorem with
  | T1 -> m.q_pri +. out_term m ~k
  | T2 -> m.q_pri +. m.q_max +. out_term m ~k
  | Sharded ->
      (* one max query per shard to compute bounds, then each visited
         shard pays a full Theorem-2 leg, then the final merge scan *)
      (float_of_int m.shards *. m.q_max)
      +. (float_of_int (max visited 1)
          *. (m.q_pri +. m.q_max +. out_term m ~k))
      +. out_term m ~k
  | Dynamic inner ->
      (* Bentley–Saxe view: [visited] immutable runs (the level
         hierarchy keeps at most O(log n) of them), each paying one
         static query under the inner bound, plus the update-log
         replay (amortized O(log n) per update, surfaced here as a
         log-sized additive term) and the final k-way merge scan. *)
      let static = normalizer { m with theorem = inner } ~k ~visited in
      (float_of_int (max visited 1) *. static)
      +. log (float_of_int (m.n + 2))
      +. out_term m ~k

let fit ~instance ~theorem ~n ?(shards = 1) ?(margin = 2.0) ~q_pri ~q_max
    samples =
  if samples = [] then invalid_arg "Certify.fit: empty sample list";
  if margin < 1.0 then invalid_arg "Certify.fit: margin must be >= 1";
  let b = (Topk_em.Config.current ()).Topk_em.Config.b in
  let m =
    { instance; theorem; n; b; shards; q_pri; q_max; c = 1.0; margin }
  in
  let c =
    List.fold_left
      (fun acc (k, visited, measured) ->
        let visited = Option.value visited ~default:shards in
        let norm = normalizer m ~k ~visited in
        Float.max acc (float_of_int measured /. norm))
      0.0 samples
  in
  { m with c = Float.max c 1e-9 }

let bound m ~k ~visited = m.c *. m.margin *. normalizer m ~k ~visited

let check m ~k ?(visited = m.shards) ~measured () =
  let b = bound m ~k ~visited in
  {
    v_instance = m.instance;
    v_measured = measured;
    v_bound = b;
    v_ok = float_of_int measured <= b;
  }

(* ---------- model registry ---------- *)

let registry : (string, model) Hashtbl.t = Hashtbl.create 16
let registry_mutex = Mutex.create ()

let locked f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

let register m = locked (fun () -> Hashtbl.replace registry m.instance m)
let lookup name = locked (fun () -> Hashtbl.find_opt registry name)

let models () =
  locked (fun () -> Hashtbl.fold (fun _ m acc -> m :: acc) registry [])

let clear_models () = locked (fun () -> Hashtbl.reset registry)

(* ---------- global counters ---------- *)

let n_checked = Atomic.make 0
let n_violations = Atomic.make 0
let checked () = Atomic.get n_checked
let violations () = Atomic.get n_violations

let reset_counters () =
  Atomic.set n_checked 0;
  Atomic.set n_violations 0

let evaluate ~instance ~k ?visited ~measured () =
  match lookup instance with
  | None -> None
  | Some m ->
      let v = check m ~k ?visited ~measured () in
      Atomic.incr n_checked;
      if not v.v_ok then Atomic.incr n_violations;
      Some v

let certify_trace (tr : Trace.t) =
  let root = tr.Trace.root in
  match (Trace.attr_str root "instance", Trace.attr_int root "k") with
  | Some instance, Some k ->
      let visited = Trace.attr_int root "visited" in
      let measured = root.Trace.cost.Topk_em.Stats.ios in
      evaluate ~instance ~k ?visited ~measured ()
  | _ -> None

let pp_verdict fmt v =
  Format.fprintf fmt "%s: %d I/Os %s bound %.1f (%s)" v.v_instance
    v.v_measured
    (if v.v_ok then "<=" else ">")
    v.v_bound
    (if v.v_ok then "ok" else "VIOLATION")
