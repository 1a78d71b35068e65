(* Structured per-query tracing.  See trace.mli for the model.

   Hot-path discipline: when disabled, every entry point is one
   [Atomic.get] and out.  When enabled, spans live in a per-domain
   context (Domain.DLS) so recording takes no locks; only completed
   traces cross domains, through the mutex-guarded ring buffer
   [Store].  Instrumented code must never charge [Stats] itself —
   costs are *observed* via snapshots, not added — so tracing is
   invisible to the EM cost model. *)

module Clock = Topk_util.Clock

module Stats = Topk_em.Stats

type value = Int of int | Float of float | Str of string | Bool of bool

type span = {
  name : string;
  mutable attrs : (string * value) list;
  t_start : float;
  mutable t_end : float;
  mutable cost : Stats.snapshot;
  mutable children : span list;
}

type t = { id : int; parent : int option; root : span }

(* ---------- global switch ---------- *)

let enabled = Atomic.make false
let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false
let is_enabled () = Atomic.get enabled

(* ---------- per-domain recording context ---------- *)

type ctx = {
  mutable tid : int;               (* id of the open trace, -1 if none *)
  mutable tparent : int option;
  mutable stack : (span * Stats.snapshot) list;
      (* innermost first; each open span paired with the Stats
         snapshot taken when it was opened *)
}

let ctx_key =
  Domain.DLS.new_key (fun () -> { tid = -1; tparent = None; stack = [] })

let next_id = Atomic.make 1

let open_span name attrs =
  {
    name;
    attrs;
    t_start = Clock.now ();
    t_end = nan;
    cost = Stats.zero_snapshot;
    children = [];
  }

let close_span sp at_open =
  sp.t_end <- Clock.now ();
  sp.cost <- Stats.diff (Stats.snapshot ()) at_open;
  sp.children <- List.rev sp.children

(* ---------- store (forward-declared before with_root uses it) ---------- *)

module Store = struct
  let mutex = Mutex.create ()
  let capacity = ref 512
  let ring : t option array ref = ref (Array.make 512 None)
  let added = ref 0

  let locked f =
    Mutex.lock mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock mutex) f

  let set_capacity c =
    if c <= 0 then invalid_arg "Trace.Store.set_capacity: capacity must be positive";
    locked (fun () ->
        capacity := c;
        ring := Array.make c None;
        added := 0)

  let add tr =
    locked (fun () ->
        !ring.(!added mod !capacity) <- Some tr;
        incr added)

  let length () =
    locked (fun () -> min !added !capacity)

  let total () = locked (fun () -> !added)

  let recent ?limit () =
    locked (fun () ->
        let held = min !added !capacity in
        let take = match limit with Some l -> min l held | None -> held in
        let out = ref [] in
        for i = 0 to take - 1 do
          (* most recent first: walk backwards from the write head *)
          let idx = (!added - 1 - i + !capacity) mod !capacity in
          match !ring.(idx) with
          | Some tr -> out := tr :: !out
          | None -> ()
        done;
        List.rev !out)

  let find id =
    locked (fun () ->
        let held = min !added !capacity in
        let rec go i =
          if i >= held then None
          else
            let idx = (!added - 1 - i + !capacity) mod !capacity in
            match !ring.(idx) with
            | Some tr when tr.id = id -> Some tr
            | _ -> go (i + 1)
        in
        go 0)

  let clear () =
    locked (fun () ->
        Array.fill !ring 0 (Array.length !ring) None;
        added := 0)

  (* export defined after to_json below *)
  let export_ref : (?limit:int -> unit -> string) ref =
    ref (fun ?limit:_ () -> "")

  let export ?limit () = !export_ref ?limit ()
end

(* ---------- recording ---------- *)

let with_span ?(attrs = []) name f =
  if not (Atomic.get enabled) then f ()
  else
    let ctx = Domain.DLS.get ctx_key in
    if ctx.tid < 0 then f ()
    else begin
      let sp = open_span name attrs in
      let at_open = Stats.snapshot () in
      ctx.stack <- (sp, at_open) :: ctx.stack;
      Fun.protect
        ~finally:(fun () ->
          (match ctx.stack with
          | (top, snap) :: rest when top == sp ->
              ctx.stack <- rest;
              close_span top snap;
              (match rest with
              | (parent, _) :: _ -> parent.children <- top :: parent.children
              | [] -> ())
          | _ ->
              (* unbalanced: an inner span leaked (should not happen —
                 every opener unwinds via Fun.protect).  Pop down to us
                 defensively so the trace stays well-formed. *)
              let rec pop () =
                match ctx.stack with
                | (top, snap) :: rest ->
                    ctx.stack <- rest;
                    close_span top snap;
                    (match rest with
                    | (parent, _) :: _ ->
                        parent.children <- top :: parent.children
                    | [] -> ());
                    if top != sp then pop ()
                | [] -> ()
              in
              pop ()))
        f
    end

let with_root ?parent ?(attrs = []) name f =
  if not (Atomic.get enabled) then (f (), None)
  else
    let ctx = Domain.DLS.get ctx_key in
    if ctx.tid >= 0 then (with_span ~attrs name f, None)
    else begin
      let id = Atomic.fetch_and_add next_id 1 in
      let sp = open_span name attrs in
      let at_open = Stats.snapshot () in
      ctx.tid <- id;
      ctx.tparent <- parent;
      ctx.stack <- [ (sp, at_open) ];
      let finish () =
        (* close any children left open by an exception, then the root *)
        let rec unwind () =
          match ctx.stack with
          | [ (root, snap) ] when root == sp ->
              ctx.stack <- [];
              close_span root snap
          | (top, snap) :: rest ->
              ctx.stack <- rest;
              close_span top snap;
              (match rest with
              | (parent, _) :: _ -> parent.children <- top :: parent.children
              | [] -> ());
              unwind ()
          | [] -> ()
        in
        unwind ();
        ctx.tid <- -1;
        ctx.tparent <- None;
        let tr = { id; parent; root = sp } in
        Store.add tr;
        tr
      in
      match f () with
      | v -> (v, Some (finish ()))
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          ignore (finish ());
          Printexc.raise_with_backtrace e bt
    end

let add_attr key v =
  if Atomic.get enabled then
    let ctx = Domain.DLS.get ctx_key in
    match ctx.stack with
    | (sp, _) :: _ ->
        sp.attrs <- (key, v) :: List.remove_assoc key sp.attrs
    | [] -> ()

let event ?(attrs = []) name =
  if Atomic.get enabled then
    let ctx = Domain.DLS.get ctx_key in
    match ctx.stack with
    | (sp, _) :: _ ->
        let t = Clock.now () in
        let ev =
          {
            name;
            attrs;
            t_start = t;
            t_end = t;
            cost = Stats.zero_snapshot;
            children = [];
          }
        in
        sp.children <- ev :: sp.children
    | [] -> ()

let current_trace_id () =
  if not (Atomic.get enabled) then None
  else
    let ctx = Domain.DLS.get ctx_key in
    if ctx.tid >= 0 then Some ctx.tid else None

(* ---------- reading ---------- *)

let attr sp key = List.assoc_opt key sp.attrs

let attr_int sp key =
  match attr sp key with Some (Int i) -> Some i | _ -> None

let attr_str sp key =
  match attr sp key with Some (Str s) -> Some s | _ -> None

let duration_us sp =
  if Float.is_nan sp.t_end then 0.
  else (sp.t_end -. sp.t_start) *. 1e6

let rec span_count_sp sp =
  List.fold_left (fun acc c -> acc + span_count_sp c) 1 sp.children

let span_count tr = span_count_sp tr.root

let find_spans tr name =
  let rec go acc sp =
    let acc = if sp.name = name then sp :: acc else acc in
    List.fold_left go acc sp.children
  in
  List.rev (go [] tr.root)

(* ---------- JSON export ---------- *)

let buf_escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let buf_float b f =
  (* JSON has no inf/nan literals; encode them as strings so the
     output always parses (pruning thresholds can be -inf). *)
  if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%g" f)
  else if Float.is_nan f then Buffer.add_string b "\"nan\""
  else if f > 0. then Buffer.add_string b "\"inf\""
  else Buffer.add_string b "\"-inf\""

let buf_value b = function
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f -> buf_float b f
  | Bool x -> Buffer.add_string b (if x then "true" else "false")
  | Str s ->
      Buffer.add_char b '"';
      buf_escape b s;
      Buffer.add_char b '"'

let rec buf_span b sp =
  Buffer.add_string b "{\"name\":\"";
  buf_escape b sp.name;
  Buffer.add_string b "\",\"us\":";
  buf_float b (duration_us sp);
  Buffer.add_string b ",\"ios\":";
  Buffer.add_string b (string_of_int sp.cost.Stats.ios);
  Buffer.add_string b ",\"scanned\":";
  Buffer.add_string b (string_of_int sp.cost.Stats.scanned);
  (match List.rev sp.attrs with
  | [] -> ()
  | attrs ->
      Buffer.add_string b ",\"attrs\":{";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_char b '"';
          buf_escape b k;
          Buffer.add_string b "\":";
          buf_value b v)
        attrs;
      Buffer.add_char b '}');
  (match sp.children with
  | [] -> ()
  | children ->
      Buffer.add_string b ",\"children\":[";
      List.iteri
        (fun i c ->
          if i > 0 then Buffer.add_char b ',';
          buf_span b c)
        children;
      Buffer.add_char b ']');
  Buffer.add_char b '}'

let to_json tr =
  let b = Buffer.create 512 in
  Buffer.add_string b "{\"id\":";
  Buffer.add_string b (string_of_int tr.id);
  (match tr.parent with
  | Some p ->
      Buffer.add_string b ",\"parent\":";
      Buffer.add_string b (string_of_int p)
  | None -> ());
  Buffer.add_string b ",\"root\":";
  buf_span b tr.root;
  Buffer.add_char b '}';
  Buffer.contents b

let () =
  Store.export_ref :=
    fun ?limit () ->
      Store.recent ?limit ()
      |> List.map to_json
      |> String.concat "\n"
