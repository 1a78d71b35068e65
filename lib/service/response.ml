module Stats = Topk_em.Stats
module Certify = Topk_trace.Certify

type status =
  | Complete
  | Cutoff_budget
  | Cutoff_deadline
  | Failed of Error.t

(* Per-query cost accounting, separated from the answer payload so the
   serving layers can combine/inspect it without touching answers. *)
type summary = {
  cost : Stats.snapshot;
  rounds : int;
  attempts : int;
  certified : Certify.verdict option;
}

type 'e t = {
  answers : 'e list;
  status : status;
  summary : summary;
  trace_id : int option;
  latency : float;
  worker : int;
  instance : string;
  k : int;
  seq_token : int option;
}

let seq_token r = r.seq_token

let zero_summary =
  { cost = Stats.zero_snapshot; rounds = 0; attempts = 0; certified = None }

let cost r = r.summary.cost

let rounds r = r.summary.rounds

let attempts r = r.summary.attempts

let certified r = r.summary.certified

let is_partial r =
  match r.status with
  | Cutoff_budget | Cutoff_deadline -> true
  | Complete | Failed _ -> false

let severity = function
  | Complete -> 0
  | Cutoff_budget -> 1
  | Cutoff_deadline -> 2
  | Failed _ -> 3

let combine_status a b = if severity b > severity a then b else a

let status_string = function
  | Complete -> "complete"
  | Cutoff_budget -> "cutoff:budget"
  | Cutoff_deadline -> "cutoff:deadline"
  | Failed e -> "failed:" ^ Error.to_string e

let pp ppf r =
  Format.fprintf ppf
    "@[<h>%s k=%d -> %d answer(s) [%s] cost=(%a) rounds=%d worker=%d \
     latency=%.0fus%s%s@]"
    r.instance r.k (List.length r.answers) (status_string r.status) Stats.pp
    (cost r) (rounds r) r.worker (r.latency *. 1e6)
    (match r.trace_id with
    | Some id -> Printf.sprintf " trace=%d" id
    | None -> "")
    (match certified r with
    | Some v when v.Certify.v_ok -> " certified"
    | Some _ -> " BOUND-VIOLATION"
    | None -> "")
