module Log = Topk_ingest.Update_log

(* The retained shipping history: a bounded suffix of the node's WAL
   stream, indexed by sequence number.  Every node keeps one (fed by
   its ingest sink), so any replica can be promoted and immediately
   resume shipping from what it has applied. *)
module Outlog = struct
  type 'e t = {
    retain : int;
    tbl : (int, 'e Log.entry) Hashtbl.t;
    mutable floor : int;  (* lowest retained seq *)
    mutable last : int;   (* newest appended seq; floor-1 when empty *)
  }

  let create ?(retain = 512) () =
    if retain < 1 then invalid_arg "Outlog.create: retain >= 1";
    { retain; tbl = Hashtbl.create 64; floor = 1; last = 0 }

  let last t = t.last

  let floor t = t.floor

  let append t (e : 'e Log.entry) =
    if e.Log.seq <> t.last + 1 then
      invalid_arg
        (Printf.sprintf "Outlog.append: seq %d after %d (must be contiguous)"
           e.Log.seq t.last);
    Hashtbl.replace t.tbl e.Log.seq e;
    t.last <- e.Log.seq;
    while t.last - t.floor + 1 > t.retain do
      Hashtbl.remove t.tbl t.floor;
      t.floor <- t.floor + 1
    done

  let get t seq = Hashtbl.find_opt t.tbl seq

  (* Snapshot install on the owning node: history below the installed
     image is gone for good, so the log restarts just above it. *)
  let reset_to t ~seq =
    Hashtbl.reset t.tbl;
    t.floor <- seq + 1;
    t.last <- seq
end

(* Per-peer go-back-N shipping state on the current primary. *)
type peer = {
  p_id : int;
  mutable p_next : int;   (* next seq to transmit *)
  mutable p_acked : int;  (* cumulative: peer applied 1..p_acked *)
  mutable p_base : int;   (* seq covered by an in-flight install image *)
  mutable p_progress_at : int;  (* virtual time of last forward progress *)
}

type 'e t = {
  olog : 'e Outlog.t;  (* shared with the owning node's sink *)
  window : int;
  rto : int;
  mutable peers : peer list;
}

let attach ?(window = 8) ?(rto = 6) olog =
  if window < 1 then invalid_arg "Log_ship.attach: window >= 1";
  if rto < 1 then invalid_arg "Log_ship.attach: rto >= 1";
  { olog; window; rto; peers = [] }

let outlog t = t.olog

let find t id = List.find_opt (fun p -> p.p_id = id) t.peers

let add_peer t ~now id =
  match find t id with
  | Some _ -> ()
  | None ->
      t.peers <-
        { p_id = id; p_next = 1; p_acked = 0; p_base = 0; p_progress_at = now }
        :: t.peers

(* How many peers have applied everything up to [seq] — the write
   path's quorum test. *)
let acks_covering t seq =
  List.fold_left (fun n p -> if p.p_acked >= seq then n + 1 else n) 0 t.peers

let handle_ack t ~peer ~upto ~now =
  match find t peer with
  | None -> false
  | Some p ->
      if upto > p.p_acked then begin
        p.p_acked <- upto;
        p.p_progress_at <- now;
        (* A cumulative ack can overtake the send cursor (a rejoining
           peer acking everything it already had): jump past it. *)
        if p.p_next <= upto then p.p_next <- upto + 1;
        true
      end
      else false

let mark_installing t ~peer ~upto ~now =
  match find t peer with
  | None -> ()
  | Some p ->
      p.p_next <- upto + 1;
      (* The image counts as one unit, not [upto] in-flight frames:
         the window meters frames sent beyond it. *)
      p.p_base <- upto;
      p.p_progress_at <- now

(* One pump of the shipping loop.  Go-back-N: if a peer has made no
   progress for [rto] ticks while lagging, rewind its cursor to just
   past its cumulative ack and retransmit the window.  A cursor that
   rewinds below the outlog floor means the history is gone — that
   peer needs a snapshot install, reported via [install] (the caller
   builds and sends the image, then calls {!mark_installing}). *)
let tick t ~now ~ship ~install =
  let last = Outlog.last t.olog in
  List.iter
    (fun p ->
      if p.p_acked < last && now - p.p_progress_at > t.rto then begin
        (* Go-back-N — and an unacked install image is forgotten with
           the frames behind it, so a lost install is re-sent too. *)
        p.p_next <- p.p_acked + 1;
        p.p_base <- p.p_acked;
        p.p_progress_at <- now
      end;
      if p.p_next < Outlog.floor t.olog then install ~peer:p.p_id
      else
        let budget = ref (t.window - (p.p_next - max p.p_acked p.p_base - 1)) in
        while p.p_next <= last && !budget > 0 do
          (match Outlog.get t.olog p.p_next with
          | Some e -> ship ~peer:p.p_id e
          | None ->
              (* Retention raced ahead of the cursor mid-window. *)
              install ~peer:p.p_id;
              budget := 0);
          if !budget > 0 then begin
            p.p_next <- p.p_next + 1;
            decr budget
          end
        done)
    t.peers
