(* topk — command-line driver for the top-k reduction library.

   Subcommands build a structure over a synthetic workload, answer
   queries, and report the EM-model cost:

     topk interval  -n 100000 --method thm2 -q 0.5 -k 10
     topk enclosure -n 50000  --method thm1 -x 33 -y 172 -k 10
     topk dominance -n 20000  --method rj   -x 180 -y 8 -z 3.5 -k 10
     topk halfplane -n 20000  -a 1 -b 1 -c 1.2 -k 5
     topk circular  -n 20000  -x 4.2 -y 5.7 -r 1.5 -k 5
     topk sample-check -n 100000 -k 1000 --delta 0.1 --trials 500 *)

open Cmdliner
module Clock = Topk_util.Clock

(* --- argument validation ---

   Invalid combinations exit with a one-line error and status 2 instead
   of an uncaught exception from deep inside a structure. *)

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("topk: " ^ msg);
      exit 2)
    fmt

let require_pos name v =
  if v <= 0 then die "%s must be positive (got %d)" name v

let require_pos_float name v =
  if not (v > 0.) then die "%s must be positive (got %g)" name v

let validate_common ~n ~k = require_pos "n" n; require_pos "k" k

type method_ = Thm1 | Thm2 | Rj | Naive

let method_conv =
  let parse = function
    | "thm1" -> Ok Thm1
    | "thm2" -> Ok Thm2
    | "rj" -> Ok Rj
    | "naive" -> Ok Naive
    | s -> Error (`Msg (Printf.sprintf "unknown method %S" s))
  in
  let print ppf m =
    Format.pp_print_string ppf
      (match m with Thm1 -> "thm1" | Thm2 -> "thm2" | Rj -> "rj" | Naive -> "naive")
  in
  Arg.conv (parse, print)

let n_arg =
  Arg.(value & opt int 50_000 & info [ "n" ] ~docv:"N" ~doc:"Number of elements.")

let k_arg =
  Arg.(value & opt int 10 & info [ "k" ] ~docv:"K" ~doc:"Result size.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.")

let method_arg =
  Arg.(
    value
    & opt method_conv Thm2
    & info [ "method" ] ~docv:"METHOD"
        ~doc:"Reduction: thm1, thm2, rj (eqs. 1-2 baseline) or naive.")

let block_arg =
  Arg.(
    value & opt int 64
    & info [ "block" ] ~docv:"B" ~doc:"EM block size in words (1 = RAM).")

let with_model block f =
  let model =
    if block <= 1 then Topk_em.Config.ram else Topk_em.Config.em ~b:block ()
  in
  Topk_em.Config.with_model model f

let report_cost () =
  let s = Topk_em.Stats.snapshot () in
  Printf.printf "cost: %d I/Os (%d elements scanned)\n" s.Topk_em.Stats.ios
    s.Topk_em.Stats.scanned

(* --- hermetic scratch space ---

   Bench subcommands that touch real files keep them under one
   dedicated per-process temp directory.  Cleanup is registered with
   [at_exit], not a [Fun.protect] finalizer, because [die] (and any
   path that reaches [exit], e.g. an [Overloaded] pool escaping a
   bench) terminates with [exit 2] — [at_exit] runs on every exit
   path, so a failing bench leaves nothing behind. *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

let scratch_root = ref None

let scratch_dir () =
  match !scratch_root with
  | Some d -> d
  | None ->
      let d =
        Filename.concat
          (Filename.get_temp_dir_name ())
          (Printf.sprintf "topk-scratch-%d" (Unix.getpid ()))
      in
      rm_rf d;
      Unix.mkdir d 0o755;
      scratch_root := Some d;
      at_exit (fun () -> rm_rf d);
      d

(* A fresh empty subdirectory of the scratch root. *)
let fresh_scratch name =
  let d = Filename.concat (scratch_dir ()) name in
  rm_rf d;
  Unix.mkdir d 0o755;
  d

(* --- interval --- *)

let interval_cmd =
  let q_arg =
    Arg.(
      value & opt float 0.5
      & info [ "q" ] ~docv:"Q" ~doc:"Stabbing coordinate in [0,1].")
  in
  let run n k seed meth q block =
    validate_common ~n ~k;
    with_model block (fun () ->
        let elems =
          let rng = Topk_util.Rng.create seed in
          Topk_interval.Interval.of_spans rng
            (Topk_util.Gen.intervals rng ~shape:Topk_util.Gen.Mixed_intervals ~n)
        in
        let module Inst = Topk_interval.Instances in
        let params = Inst.params () in
        let query =
          match meth with
          | Thm1 ->
              let t = Inst.Topk_t1.build ~params elems in
              fun () -> Inst.Topk_t1.query t q ~k
          | Thm2 ->
              let t = Inst.Topk_t2.build ~params elems in
              fun () -> Inst.Topk_t2.query t q ~k
          | Rj ->
              let t = Inst.Topk_rj.build elems in
              fun () -> Inst.Topk_rj.query t q ~k
          | Naive ->
              let t = Inst.Topk_naive.build elems in
              fun () -> Inst.Topk_naive.query t q ~k
        in
        Topk_em.Stats.reset ();
        let result = query () in
        Printf.printf "top-%d intervals stabbed by %g (of %d):\n" k q n;
        List.iter
          (fun itv ->
            Format.printf "  %a@." Topk_interval.Interval.pp itv)
          result;
        report_cost ())
  in
  Cmd.v
    (Cmd.info "interval" ~doc:"Top-k interval stabbing (Theorem 4).")
    Term.(const run $ n_arg $ k_arg $ seed_arg $ method_arg $ q_arg $ block_arg)

(* --- enclosure --- *)

let enclosure_cmd =
  let x_arg =
    Arg.(value & opt float 0.5 & info [ "x" ] ~docv:"X" ~doc:"Query x.")
  in
  let y_arg =
    Arg.(value & opt float 0.5 & info [ "y" ] ~docv:"Y" ~doc:"Query y.")
  in
  let run n k seed meth x y block =
    validate_common ~n ~k;
    with_model block (fun () ->
        let rects =
          let rng = Topk_util.Rng.create seed in
          Topk_enclosure.Rect.of_boxes rng (Topk_util.Gen.rectangles rng ~n)
        in
        let module Inst = Topk_enclosure.Instances in
        let params = Inst.params () in
        let query =
          match meth with
          | Thm1 ->
              let t = Inst.Topk_t1.build ~params rects in
              fun () -> Inst.Topk_t1.query t (x, y) ~k
          | Thm2 ->
              let t = Inst.Topk_t2.build ~params rects in
              fun () -> Inst.Topk_t2.query t (x, y) ~k
          | Rj ->
              let t = Inst.Topk_rj.build rects in
              fun () -> Inst.Topk_rj.query t (x, y) ~k
          | Naive ->
              let t = Inst.Topk_naive.build rects in
              fun () -> Inst.Topk_naive.query t (x, y) ~k
        in
        Topk_em.Stats.reset ();
        let result = query () in
        Printf.printf "top-%d rectangles containing (%g, %g) of %d:\n" k x y n;
        List.iter
          (fun r -> Format.printf "  %a@." Topk_enclosure.Rect.pp r)
          result;
        report_cost ())
  in
  Cmd.v
    (Cmd.info "enclosure" ~doc:"Top-k 2D point enclosure (Theorem 5).")
    Term.(
      const run $ n_arg $ k_arg $ seed_arg $ method_arg $ x_arg $ y_arg
      $ block_arg)

(* --- dominance --- *)

let dominance_cmd =
  let x_arg =
    Arg.(value & opt float 200. & info [ "x" ] ~docv:"PRICE" ~doc:"Max price.")
  in
  let y_arg =
    Arg.(value & opt float 10. & info [ "y" ] ~docv:"KM" ~doc:"Max distance.")
  in
  let z_arg =
    Arg.(
      value & opt float 3.
      & info [ "z" ] ~docv:"SEC" ~doc:"Min security rating.")
  in
  let run n k seed meth x y z block =
    validate_common ~n ~k;
    with_model block (fun () ->
        let hotels =
          Topk_dominance.Instances.hotels (Topk_util.Rng.create seed) ~n
        in
        let module Inst = Topk_dominance.Instances in
        let params = Inst.params () in
        let q = (x, y, -.z) in
        let query =
          match meth with
          | Thm1 ->
              let t = Inst.Topk_t1.build ~params hotels in
              fun () -> Inst.Topk_t1.query t q ~k
          | Thm2 ->
              let t = Inst.Topk_t2.build ~params hotels in
              fun () -> Inst.Topk_t2.query t q ~k
          | Rj ->
              let t = Inst.Topk_rj.build hotels in
              fun () -> Inst.Topk_rj.query t q ~k
          | Naive ->
              let t = Inst.Topk_naive.build hotels in
              fun () -> Inst.Topk_naive.query t q ~k
        in
        Topk_em.Stats.reset ();
        let result = query () in
        Printf.printf
          "top-%d hotels (price <= %g, distance <= %g, security >= %g) of %d:\n"
          k x y z n;
        List.iter
          (fun h -> Format.printf "  %a@." Topk_dominance.Point3.pp h)
          result;
        report_cost ())
  in
  Cmd.v
    (Cmd.info "dominance" ~doc:"Top-k 3D dominance (Theorem 6).")
    Term.(
      const run $ n_arg $ k_arg $ seed_arg $ method_arg $ x_arg $ y_arg
      $ z_arg $ block_arg)

(* --- halfplane --- *)

let halfplane_cmd =
  let a_arg = Arg.(value & opt float 1. & info [ "a" ] ~docv:"A" ~doc:"Normal x.") in
  let b_arg = Arg.(value & opt float 1. & info [ "b" ] ~docv:"B" ~doc:"Normal y.") in
  let c_arg = Arg.(value & opt float 1. & info [ "c" ] ~docv:"C" ~doc:"Offset.") in
  let run n k seed a b c block =
    validate_common ~n ~k;
    with_model block (fun () ->
        let pts =
          let rng = Topk_util.Rng.create seed in
          Topk_geom.Point2.of_coords rng
            (Array.map
               (fun p -> (p.(0), p.(1)))
               (Topk_util.Gen.points rng ~n ~d:2))
        in
        let module Inst = Topk_halfspace.Instances in
        let t = Inst.Topk2_t2.build ~params:(Inst.params2 ()) pts in
        let q = Topk_geom.Halfplane.make ~a ~b ~c in
        Topk_em.Stats.reset ();
        let result = Inst.Topk2_t2.query t q ~k in
        Format.printf "top-%d points in %a of %d:@." k Topk_geom.Halfplane.pp
          q n;
        List.iter (fun p -> Format.printf "  %a@." Topk_geom.Point2.pp p) result;
        report_cost ())
  in
  Cmd.v
    (Cmd.info "halfplane"
       ~doc:"Top-k 2D halfspace reporting (Theorem 3, bullet 1).")
    Term.(
      const run $ n_arg $ k_arg $ seed_arg $ a_arg $ b_arg $ c_arg $ block_arg)

(* --- circular --- *)

let circular_cmd =
  let x_arg = Arg.(value & opt float 0.5 & info [ "x" ] ~docv:"X" ~doc:"Center x.") in
  let y_arg = Arg.(value & opt float 0.5 & info [ "y" ] ~docv:"Y" ~doc:"Center y.") in
  let r_arg = Arg.(value & opt float 0.2 & info [ "r" ] ~docv:"R" ~doc:"Radius.") in
  let run n k seed x y r block =
    validate_common ~n ~k;
    require_pos_float "r" r;
    with_model block (fun () ->
        let module H = Topk_halfspace in
        let module Inst = Topk_halfspace.Instances in
        let pts =
          let rng = Topk_util.Rng.create seed in
          H.Pointd.of_coords rng (Topk_util.Gen.points rng ~n ~d:2)
        in
        let t = Inst.Topk_ball_t2.build ~params:(Inst.paramsd ~d:2) pts in
        let q = H.Predicates.Ball.make ~center:[| x; y |] ~radius:r in
        Topk_em.Stats.reset ();
        let result = Inst.Topk_ball_t2.query t q ~k in
        Printf.printf "top-%d points within %g of (%g, %g) of %d:\n" k r x y n;
        List.iter (fun p -> Format.printf "  %a@." H.Pointd.pp p) result;
        report_cost ())
  in
  Cmd.v
    (Cmd.info "circular" ~doc:"Top-k circular reporting (Corollary 1).")
    Term.(
      const run $ n_arg $ k_arg $ seed_arg $ x_arg $ y_arg $ r_arg $ block_arg)

(* --- serve-bench --- *)

let serve_bench_cmd =
  let module Svc = Topk_service in
  let module Stats = Topk_em.Stats in
  let queries_arg =
    Arg.(
      value & opt int 10_000
      & info [ "queries" ] ~docv:"Q" ~doc:"Number of queries to serve.")
  in
  let workers_arg =
    Arg.(
      value & opt int 4
      & info [ "workers" ] ~docv:"W" ~doc:"Worker domains in the pool.")
  in
  let capacity_arg =
    Arg.(
      value & opt int 1024
      & info [ "capacity" ] ~docv:"C" ~doc:"Bounded queue capacity.")
  in
  let batch_arg =
    Arg.(
      value & opt int 32
      & info [ "batch" ] ~docv:"J" ~doc:"Max jobs a worker pops at once.")
  in
  let mixed_arg =
    Arg.(
      value & flag
      & info [ "mixed" ]
          ~doc:"Serve a mixed interval-stabbing + 1D-range workload \
                instead of intervals only.")
  in
  let run n k seed queries workers capacity batch mixed block =
    validate_common ~n ~k;
    require_pos "queries" queries;
    require_pos "workers" workers;
    require_pos "capacity" capacity;
    require_pos "batch" batch;
    with_model block (fun () ->
        let rng = Topk_util.Rng.create seed in
        Printf.printf
          "serve-bench: n=%d queries=%d workers=%d k=%d capacity=%d batch<=%d%s\n%!"
          n queries workers k capacity batch
          (if mixed then " (mixed interval+range)" else "");
        (* Build the instances (build cost is not part of serving). *)
        let elems =
          Topk_interval.Interval.of_spans rng
            (Topk_util.Gen.intervals rng ~shape:Topk_util.Gen.Mixed_intervals
               ~n)
        in
        let module IInst = Topk_interval.Instances in
        let itv = IInst.Topk_t2.build ~params:(IInst.params ()) elems in
        let registry = Svc.Registry.create () in
        let itv_h =
          Svc.Registry.register registry ~name:"intervals"
            (module IInst.Topk_t2)
            itv
        in
        let range_h =
          if not mixed then None
          else begin
            let module RInst = Topk_range.Instances in
            let pts =
              Topk_range.Wpoint.of_positions rng
                (Array.init n (fun _ -> Topk_util.Rng.uniform rng))
            in
            let rs = RInst.Topk_t2.build ~params:(RInst.params ()) pts in
            Some
              (Svc.Registry.register registry ~name:"range1d"
                 (module RInst.Topk_t2)
                 rs)
          end
        in
        List.iter
          (fun i -> Format.printf "registered %a@." Svc.Registry.pp_info i)
          (Svc.Registry.list registry);
        let stabs = Topk_util.Gen.stab_queries rng ~n:queries in
        let ranges =
          Array.init queries (fun _ ->
              let a = Topk_util.Rng.uniform rng
              and b = Topk_util.Rng.uniform rng in
              (Float.min a b, Float.max a b))
        in
        (* Sequential reference pass on this domain, same code path as
           the workers (per-query carry rounding included). *)
        let run_one i =
          if mixed && i land 1 = 1 then
            match range_h with
            | Some h ->
                ignore
                  (Svc.Registry.h_exec h ranges.(i) ~k ~budget:None
                     ~deadline:None)
            | None -> assert false
          else
            ignore
              (Svc.Registry.h_exec itv_h stabs.(i) ~k ~budget:None
                 ~deadline:None)
        in
        let t0 = Clock.now () in
        let (), seq =
          Stats.measure (fun () ->
              for i = 0 to queries - 1 do
                run_one i
              done)
        in
        let seq_elapsed = Clock.now () -. t0 in
        Printf.printf "\nsequential: %d queries in %.3fs (%.0f qps), %s\n%!"
          queries seq_elapsed
          (float_of_int queries /. Float.max 1e-9 seq_elapsed)
          (Format.asprintf "%a" Stats.pp seq);
        (* Concurrent pass through the pool, behind the Client facade:
           queries consult the shared answer cache before enqueueing.
           The stab/range points are distinct draws, so the cache stays
           cold and the worker I/O totals remain comparable to the
           sequential reference. *)
        let pool =
          Svc.Executor.create ~workers ~queue_capacity:capacity
            ~batch_max:batch ()
        in
        let client = Svc.Client.create ~metrics:(Svc.Executor.metrics pool) () in
        let itv_c = Svc.Client.attach client (Svc.Client.pooled pool itv_h) in
        let range_c =
          Option.map
            (fun h -> Svc.Client.attach client (Svc.Client.pooled pool h))
            range_h
        in
        let t1 = Clock.now () in
        let futures =
          List.init queries (fun i ->
              if mixed && i land 1 = 1 then
                match range_c with
                | Some c ->
                    let fut = Svc.Client.query c ranges.(i) ~k in
                    fun () -> ignore (Svc.Future.await fut)
                | None -> assert false
              else
                let fut = Svc.Client.query itv_c stabs.(i) ~k in
                fun () -> ignore (Svc.Future.await fut))
        in
        List.iter (fun wait -> wait ()) futures;
        let elapsed = Clock.now () -. t1 in
        let par = Svc.Executor.aggregate_stats pool in
        Printf.printf "concurrent: %d queries in %.3fs (%.0f qps)\n"
          queries elapsed
          (float_of_int queries /. Float.max 1e-9 elapsed);
        Printf.printf "aggregated worker cost: %s\n"
          (Format.asprintf "%a" Stats.pp par);
        Printf.printf "per-worker EM accounting:\n";
        List.iter
          (fun (w, s) ->
            Printf.printf "  worker %d: %s\n" w
              (Format.asprintf "%a" Stats.pp s))
          (Svc.Executor.worker_stats pool);
        Printf.printf "I/O totals: sequential=%d aggregated=%d (%s)\n"
          seq.Stats.ios par.Stats.ios
          (if seq.Stats.ios = par.Stats.ios then "exact match" else "MISMATCH");
        (* Graceful degradation demo: a deliberately under-budgeted
           query comes back flagged with a certified prefix instead of
           stalling a worker. *)
        let starved =
          Svc.Client.query_sync itv_c stabs.(0) ~k:(max 64 k)
            ~limits:(Svc.Limits.make ~budget:2 ())
        in
        Printf.printf "under-budgeted query (budget=2 I/Os): %s, %d answer(s)%s\n"
          (Svc.Response.status_string starved.Svc.Response.status)
          (List.length starved.Svc.Response.answers)
          (if Svc.Response.is_partial starved then " [certified prefix]"
           else "");
        Svc.Executor.shutdown pool;
        Printf.printf "\nmetrics:\n%s" (Svc.Metrics.report (Svc.Executor.metrics pool)))
  in
  Cmd.v
    (Cmd.info "serve-bench"
       ~doc:
         "Drive the concurrent serving subsystem (registry + domain pool) \
          with a synthetic workload and report latency/IO histograms.")
    Term.(
      const run $ n_arg $ k_arg $ seed_arg $ queries_arg $ workers_arg
      $ capacity_arg $ batch_arg $ mixed_arg $ block_arg)

(* --- chaos-bench --- *)

let chaos_bench_cmd =
  let module Svc = Topk_service in
  let module Stats = Topk_em.Stats in
  let module Fault = Topk_em.Fault in
  let queries_arg =
    Arg.(
      value & opt int 2_000
      & info [ "queries" ] ~docv:"Q" ~doc:"Number of queries to serve.")
  in
  let workers_arg =
    Arg.(
      value & opt int 4
      & info [ "workers" ] ~docv:"W" ~doc:"Worker domains in the pool.")
  in
  let fault_rate_arg =
    Arg.(
      value & opt float 0.05
      & info [ "fault-rate" ] ~docv:"P"
          ~doc:"Probability of a transient fault per block-fetch miss.")
  in
  let latency_rate_arg =
    Arg.(
      value & opt float 0.01
      & info [ "latency-rate" ] ~docv:"P"
          ~doc:"Probability of a latency spike per block-fetch miss.")
  in
  let latency_us_arg =
    Arg.(
      value & opt int 100
      & info [ "latency-us" ] ~docv:"US" ~doc:"Spike duration, microseconds.")
  in
  let retries_arg =
    Arg.(
      value & opt int 3
      & info [ "max-retries" ] ~docv:"R"
          ~doc:"Retry attempts per transient fault.")
  in
  let no_kill_arg =
    Arg.(
      value & flag
      & info [ "no-kill" ]
          ~doc:"Don't kill (and respawn) a worker domain mid-run.")
  in
  let require_rate name v =
    if not (v >= 0. && v <= 1.) then
      die "%s must be in [0,1] (got %g)" name v
  in
  let run n k seed queries workers fault_rate latency_rate latency_us
      max_retries no_kill block =
    validate_common ~n ~k;
    require_pos "queries" queries;
    require_pos "workers" workers;
    require_rate "fault-rate" fault_rate;
    require_rate "latency-rate" latency_rate;
    if latency_us < 0 then die "latency-us must be >= 0 (got %d)" latency_us;
    if max_retries < 0 then die "max-retries must be >= 0 (got %d)" max_retries;
    with_model block (fun () ->
        let rng = Topk_util.Rng.create seed in
        Printf.printf
          "chaos-bench: n=%d queries=%d workers=%d k=%d fault-rate=%g \
           latency-rate=%g/%dus retries=%d%s\n%!"
          n queries workers k fault_rate latency_rate latency_us max_retries
          (if no_kill then "" else " (+1 injected worker crash)");
        (* Mixed interval-stabbing + 1D-range workload behind one
           registry, with RAM-model naive oracles for ground truth. *)
        let elems =
          Topk_interval.Interval.of_spans rng
            (Topk_util.Gen.intervals rng ~shape:Topk_util.Gen.Mixed_intervals
               ~n)
        in
        let module IInst = Topk_interval.Instances in
        let module RInst = Topk_range.Instances in
        let pts =
          Topk_range.Wpoint.of_positions rng
            (Array.init n (fun _ -> Topk_util.Rng.uniform rng))
        in
        let registry = Svc.Registry.create () in
        let itv_h =
          Svc.Registry.register registry ~name:"intervals"
            (module IInst.Topk_t2)
            (IInst.Topk_t2.build ~params:(IInst.params ()) elems)
        in
        let rng_h =
          Svc.Registry.register registry ~name:"range1d"
            (module RInst.Topk_t2)
            (RInst.Topk_t2.build ~params:(RInst.params ()) pts)
        in
        let itv_naive = IInst.Topk_naive.build elems in
        let rng_naive = RInst.Topk_naive.build pts in
        let stabs = Topk_util.Gen.stab_queries rng ~n:queries in
        let ranges =
          Array.init queries (fun _ ->
              let a = Topk_util.Rng.uniform rng
              and b = Topk_util.Rng.uniform rng in
              (Float.min a b, Float.max a b))
        in
        (* Sequential oracle answers, computed before any fault is
           armed. *)
        let itv_ids l = List.map (fun (e : Topk_interval.Interval.t) -> e.id) l in
        let rng_ids l = List.map (fun (e : Topk_range.Wpoint.t) -> e.id) l in
        let oracle =
          Array.init queries (fun i ->
              if i land 1 = 1 then
                `R (rng_ids (RInst.Topk_naive.query rng_naive ranges.(i) ~k))
              else
                `I (itv_ids (IInst.Topk_naive.query itv_naive stabs.(i) ~k)))
        in
        (* Arm the seeded fault plan and serve the whole workload. *)
        let plan =
          Fault.plan ~io_fault_rate:fault_rate ~latency_rate
            ~latency_s:(float_of_int latency_us *. 1e-6)
            ~seed ()
        in
        Format.printf "armed %a@." Fault.pp_plan plan;
        Fault.install plan;
        let pool =
          Svc.Executor.create ~workers
            ~retry:
              {
                Svc.Executor.default_retry_policy with
                max_retries;
              }
              (* The bench asserts the resolution / retry / respawn
                 invariants, so the breaker must not shed the workload
                 it is trying to measure: at high fault rates the
                 *final* failure fraction legitimately exceeds the
                 default threshold and the default breaker would
                 (correctly) reject mid-submission.  Trip only on a
                 full window of failures — all-but-impossible while
                 any retries succeed.  Admission control itself is
                 exercised in test_service.ml. *)
            ~breaker:
              {
                Svc.Breaker.default_policy with
                Svc.Breaker.window = 256;
                min_samples = 256;
                failure_threshold = 1.0;
              }
            ()
        in
        let t0 = Clock.now () in
        let classify i status answers =
          match status with
          | Svc.Response.Failed _ -> `Failed
          | _ -> if answers = oracle.(i) then `Ok else `Mismatch
        in
        (* At extreme fault rates (~1.0) nothing ever succeeds, the
           full-window breaker legitimately trips, and [submit] sheds
           load — turn that into a one-line diagnosis instead of an
           uncaught exception. *)
        let submit h q =
          try Svc.Executor.submit pool h q ~k
          with Svc.Error.Error Svc.Error.Overloaded ->
            die
              "circuit breaker opened mid-run: the armed fault plan leaves \
               (almost) no query succeeding; lower --fault-rate or raise \
               --max-retries"
        in
        let futures =
          List.init queries (fun i ->
              if i land 1 = 1 then
                let f = submit rng_h ranges.(i) in
                fun () ->
                  let r = Svc.Future.await f in
                  classify i r.Svc.Response.status
                    (`R (rng_ids r.Svc.Response.answers))
              else
                let f = submit itv_h stabs.(i) in
                fun () ->
                  let r = Svc.Future.await f in
                  classify i r.Svc.Response.status
                    (`I (itv_ids r.Svc.Response.answers)))
        in
        (* Kill a worker mid-run; the supervisor must respawn it. *)
        if not no_kill then Svc.Executor.inject_worker_crash pool 0;
        (* Every future must resolve — a hang here is the bug this
           bench exists to catch. *)
        let ok = ref 0 and failed = ref 0 and mismatched = ref 0 in
        List.iter
          (fun wait ->
            match wait () with
            | `Ok -> incr ok
            | `Failed -> incr failed
            | `Mismatch -> incr mismatched)
          futures;
        let elapsed = Clock.now () -. t0 in
        Svc.Executor.drain pool;
        (* Wait (bounded) for the respawn to be recorded. *)
        let m = Svc.Executor.metrics pool in
        if not no_kill then begin
          let deadline = Clock.now () +. 5. in
          while
            Svc.Metrics.Counter.get m.Svc.Metrics.respawns = 0
            && Clock.now () < deadline
          do
            Unix.sleepf 0.005
          done
        end;
        Svc.Executor.shutdown pool;
        Fault.clear ();
        let retries = Svc.Metrics.Counter.get m.Svc.Metrics.retries in
        let faults_seen =
          Svc.Metrics.Counter.get m.Svc.Metrics.faults_injected
        in
        let respawns = Svc.Metrics.Counter.get m.Svc.Metrics.respawns in
        Printf.printf
          "served %d queries in %.3fs (%.0f qps): %d exact, %d failed, %d \
           mismatched\n"
          queries elapsed
          (float_of_int queries /. Float.max 1e-9 elapsed)
          !ok !failed !mismatched;
        Printf.printf
          "faults injected (EM layer): %d; escaped to serving layer: %d; \
           retries: %d; spikes: %d; respawns: %d; breaker: %s\n"
          (Fault.injected_total ()) faults_seen retries
          (Fault.spikes_total ()) respawns
          (Svc.Breaker.state_string (Svc.Executor.breaker_state pool));
        Printf.printf "\nmetrics:\n%s" (Svc.Metrics.report m);
        (* Assertions: degradation must be graceful, not silent. *)
        if !mismatched > 0 then
          die "%d non-faulted answers disagree with the sequential oracle"
            !mismatched;
        if fault_rate > 0. && retries = 0 && Fault.injected_total () = 0 then
          die "fault plan was armed but nothing was injected";
        if (not no_kill) && respawns = 0 then
          die "killed worker 0 but the supervisor never respawned it";
        if !ok + !failed + !mismatched <> queries then
          die "resolved %d of %d futures" (!ok + !failed + !mismatched)
            queries;
        Printf.printf
          "chaos-bench: OK (all %d futures resolved; exact answers under \
           injected faults; pool self-healed)\n"
          queries)
  in
  Cmd.v
    (Cmd.info "chaos-bench"
       ~doc:
         "Serve a mixed workload under a seeded EM fault plan (transient \
          block faults, latency spikes, one worker kill) and assert the \
          pool degrades gracefully: every future resolves, non-faulted \
          answers match the sequential oracle, transients are retried, \
          and the killed worker is respawned.")
    Term.(
      const run $ n_arg $ k_arg $ seed_arg $ queries_arg $ workers_arg
      $ fault_rate_arg $ latency_rate_arg $ latency_us_arg $ retries_arg
      $ no_kill_arg $ block_arg)

(* --- shard-bench --- *)

let shard_bench_cmd =
  let module Svc = Topk_service in
  let module Stats = Topk_em.Stats in
  let module Shard = Topk_shard in
  let module IInst = Topk_interval.Instances in
  let module IP = Topk_interval.Problem in
  let queries_arg =
    Arg.(
      value & opt int 200
      & info [ "queries" ] ~docv:"Q" ~doc:"Number of logical queries.")
  in
  let workers_arg =
    Arg.(
      value & opt int 4
      & info [ "workers" ] ~docv:"W" ~doc:"Worker domains in the pool.")
  in
  let shards_arg =
    Arg.(
      value & opt int 8
      & info [ "shards" ] ~docv:"S" ~doc:"Number of index shards.")
  in
  (* Pruning saves a shard's Q_top + O(k/B) per skipped shard and pays
     one max query per shard; a larger default k than the point-lookup
     commands makes that trade visible at the default n. *)
  let shard_k_arg =
    Arg.(
      value & opt int 1000 & info [ "k" ] ~docv:"K" ~doc:"Result size.")
  in
  let strategy_arg =
    Arg.(
      value
      & opt (enum [ ("range-weight", `Range_weight); ("hash", `Hash); ("balanced", `Balanced) ]) `Range_weight
      & info [ "strategy" ] ~docv:"STRAT"
          ~doc:
            "Partitioning: range-weight (weight-skewed shard maxima; the \
             pruning showcase), hash, or balanced.")
  in
  let run n k seed queries workers shards strategy block =
    require_pos "n" n;
    require_pos "k" k;
    require_pos "queries" queries;
    require_pos "workers" workers;
    require_pos "shards" shards;
    if shards > n then die "shards must be <= n (got shards=%d, n=%d)" shards n;
    with_model block (fun () ->
        let module SSet =
          Shard.Shard_set.Make (IInst.Topk_t2) (Topk_interval.Slab_max)
        in
        let module Planner = Shard.Planner.Make (SSet) in
        let module Scatter = Shard.Scatter.Make (SSet) (IInst.Topk_t2) in
        let rng = Topk_util.Rng.create seed in
        let strategy_name, strategy =
          match strategy with
          | `Range_weight -> ("range-weight", Shard.Partitioner.Range IP.weight)
          | `Hash -> ("hash", Shard.Partitioner.Hash IP.id)
          | `Balanced -> ("balanced", Shard.Partitioner.Balanced)
        in
        Printf.printf
          "shard-bench: n=%d queries=%d workers=%d shards=%d k=%d \
           strategy=%s\n%!"
          n queries workers shards k strategy_name;
        let elems =
          Topk_interval.Interval.of_spans rng
            (Topk_util.Gen.intervals rng ~shape:Topk_util.Gen.Mixed_intervals
               ~n)
        in
        let params = IInst.params () in
        (* The unsharded reference index: sharded answers must match it
           query for query. *)
        let flat = IInst.Topk_t2.build ~params elems in
        let set = SSet.of_elems ~params ~strategy ~shards elems in
        Format.printf "%a@." SSet.pp set;
        let stabs = Topk_util.Gen.stab_queries rng ~n:queries in
        let reference = Array.map (fun q -> IInst.Topk_t2.query flat q ~k) stabs in
        let ids l = List.map IP.id l in
        (* Phase 1: sequential planner on this domain — pruning
           economics vs visiting every shard. *)
        let seq_mismatch = ref 0 and seq_pruned = ref 0 in
        let (), cost_planner =
          Stats.measure (fun () ->
              Array.iteri
                (fun i q ->
                  let answers, report = Planner.query_report set q ~k in
                  if ids answers <> ids reference.(i) then incr seq_mismatch;
                  seq_pruned := !seq_pruned + report.Planner.pruned)
                stabs)
        in
        let (), cost_all =
          Stats.measure (fun () ->
              Array.iter (fun q -> ignore (Planner.query_all set q ~k)) stabs)
        in
        Printf.printf
          "sequential planner: %d/%d exact, %d shards pruned, %d I/Os \
           (visit-all: %d I/Os)\n%!"
          (queries - !seq_mismatch) queries !seq_pruned cost_planner.Stats.ios
          cost_all.Stats.ios;
        (* Phase 2: the same logical queries fanned out through the
           worker pool. *)
        let pool = Svc.Executor.create ~workers () in
        let registry = Svc.Registry.create () in
        let sc = Scatter.create pool registry ~name:"intervals" set in
        Stats.reset_all ();
        let t0 = Clock.now () in
        let par_mismatch = ref 0
        and par_pruned = ref 0
        and fanout = ref 0
        and total = ref Stats.zero_snapshot in
        Array.iteri
          (fun i q ->
            let r = Scatter.query sc q ~k in
            if
              ids r.Scatter.answers <> ids reference.(i)
              || r.Scatter.status <> Svc.Response.Complete
            then incr par_mismatch;
            par_pruned := !par_pruned + r.Scatter.pruned;
            fanout := !fanout + r.Scatter.fanout;
            total := Stats.add !total r.Scatter.cost)
          stabs;
        let elapsed = Clock.now () -. t0 in
        Svc.Executor.drain pool;
        let agg = Stats.aggregate () in
        Printf.printf
          "scatter-gather: %d/%d exact in %.3fs (%.0f q/s), fanout=%d \
           pruned=%d\n"
          (queries - !par_mismatch) queries elapsed
          (float_of_int queries /. Float.max 1e-9 elapsed)
          !fanout !par_pruned;
        Printf.printf
          "EM accounting: sum of per-query costs=%d I/Os, \
           Stats.aggregate=%d I/Os (%s)\n"
          !total.Stats.ios agg.Stats.ios
          (if !total.Stats.ios = agg.Stats.ios then "exact match"
           else "MISMATCH");
        let m = Svc.Executor.metrics pool in
        Printf.printf
          "metrics: sharded_queries=%d shards_pruned=%d fanout_mean=%.1f \
           shard_ios_p95=%d\n"
          (Svc.Metrics.Counter.get m.Svc.Metrics.sharded_queries)
          (Svc.Metrics.Counter.get m.Svc.Metrics.shards_pruned)
          (Svc.Metrics.Histogram.mean m.Svc.Metrics.fanout)
          (Svc.Metrics.Histogram.percentile m.Svc.Metrics.shard_ios 0.95);
        Svc.Executor.shutdown pool;
        (* Hard acceptance checks; any failure exits non-zero. *)
        if !seq_mismatch > 0 || !par_mismatch > 0 then
          die "sharded answers diverged from the unsharded index (%d seq, %d \
               scatter)"
            !seq_mismatch !par_mismatch;
        if !total.Stats.ios <> agg.Stats.ios then
          die "EM accounting mismatch (summed=%d aggregate=%d)"
            !total.Stats.ios agg.Stats.ios;
        if String.equal strategy_name "range-weight" then begin
          if !seq_pruned = 0 || !par_pruned = 0 then
            die "no shards pruned on a weight-skewed partition";
          if cost_planner.Stats.ios >= cost_all.Stats.ios then
            die "pruning did not reduce I/O (planner=%d visit-all=%d)"
              cost_planner.Stats.ios cost_all.Stats.ios
        end;
        Printf.printf
          "shard-bench: OK (%d queries exact; ios accounted; pruned=%d; \
           planner %d < visit-all %d I/Os)\n"
          queries !par_pruned cost_planner.Stats.ios cost_all.Stats.ios)
  in
  Cmd.v
    (Cmd.info "shard-bench"
       ~doc:
         "Shard an interval index, serve scatter-gather top-k queries \
          through the worker pool, and verify exactness, per-shard EM \
          accounting and max-query pruning against the unsharded index.")
    Term.(
      const run $ n_arg $ shard_k_arg $ seed_arg $ queries_arg $ workers_arg
      $ shards_arg $ strategy_arg $ block_arg)

(* --- trace --- *)

let trace_cmd =
  let module Tr = Topk_trace.Trace in
  let module Certify = Topk_trace.Certify in
  let module Stats = Topk_em.Stats in
  let module Svc = Topk_service in
  let module Shard = Topk_shard in
  let module IInst = Topk_interval.Instances in
  let module IP = Topk_interval.Problem in
  let queries_arg =
    Arg.(
      value & opt int 200
      & info [ "queries" ] ~docv:"Q"
          ~doc:"Certified queries per reduction (3x this in total).")
  in
  let shards_arg =
    Arg.(
      value & opt int 4
      & info [ "shards" ] ~docv:"S" ~doc:"Shards for the scatter workload.")
  in
  let workers_arg =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"W" ~doc:"Worker domains in the pool.")
  in
  let dump_arg =
    Arg.(
      value & opt int 0
      & info [ "dump" ] ~docv:"D"
          ~doc:"Print the D most recent traces as JSON (one per line).")
  in
  let run n k seed queries shards workers dump block =
    validate_common ~n ~k;
    require_pos "queries" queries;
    require_pos "shards" shards;
    require_pos "workers" workers;
    if dump < 0 then die "dump must be >= 0 (got %d)" dump;
    if shards > n then die "shards must be <= n (got shards=%d, n=%d)" shards n;
    with_model block (fun () ->
        let rng = Topk_util.Rng.create seed in
        let elems =
          Topk_interval.Interval.of_spans rng
            (Topk_util.Gen.intervals rng ~shape:Topk_util.Gen.Mixed_intervals
               ~n)
        in
        let params = IInst.params () in
        let t1 = IInst.Topk_t1.build ~params elems in
        let t2 = IInst.Topk_t2.build ~params elems in
        let module SSet =
          Shard.Shard_set.Make (IInst.Topk_t2) (Topk_interval.Slab_max)
        in
        let module Scatter = Shard.Scatter.Make (SSet) (IInst.Topk_t2) in
        let set =
          SSet.of_elems ~params
            ~strategy:(Shard.Partitioner.Range IP.weight)
            ~shards elems
        in
        let pool = Svc.Executor.create ~workers () in
        let registry = Svc.Registry.create () in
        let sc = Scatter.create pool registry ~name:"intervals" set in
        let stabs = Topk_util.Gen.stab_queries rng ~n:queries in
        let cal = Topk_util.Gen.stab_queries rng ~n:32 in
        Printf.printf "trace: n=%d queries=%d k=%d shards=%d workers=%d\n%!" n
          queries k shards workers;
        (* Phase 1 — calibration, tracing off: fit one cost model per
           reduction from a small workload and register it. *)
        let b = float_of_int (Topk_em.Config.current ()).Topk_em.Config.b in
        let logb x =
          Float.max 1. (log (Float.max 2. x) /. log (Float.max 2. b))
        in
        let ks =
          List.sort_uniq Int.compare [ 1; max 1 (k / 10); max 1 (k / 2); k ]
        in
        let fit_direct instance theorem query =
          let samples =
            List.concat_map
              (fun kc ->
                Array.to_list cal
                |> List.map (fun q ->
                       let (_ : int), c =
                         Stats.measure (fun () -> List.length (query q kc))
                       in
                       (kc, None, c.Stats.ios)))
              ks
          in
          Certify.register
            (Certify.fit ~instance ~theorem ~n ~q_pri:(logb (float_of_int n))
               ~q_max:(logb (float_of_int n))
               samples)
        in
        fit_direct "interval-t1" Certify.T1 (fun q kc ->
            IInst.Topk_t1.query t1 q ~k:kc);
        fit_direct "interval-t2" Certify.T2 (fun q kc ->
            IInst.Topk_t2.query t2 q ~k:kc);
        let n_shard = (n + shards - 1) / shards in
        let shard_samples =
          List.concat_map
            (fun kc ->
              Array.to_list cal
              |> List.map (fun q ->
                     let r = Scatter.query sc q ~k:kc in
                     (kc, Some r.Scatter.fanout, r.Scatter.cost.Stats.ios)))
            ks
        in
        Certify.register
          (Certify.fit ~instance:"intervals" ~theorem:Certify.Sharded
             ~n:n_shard ~shards ~margin:3.0
             ~q_pri:(logb (float_of_int n_shard))
             ~q_max:(logb (float_of_int n_shard))
             shard_samples);
        let model_line =
          Certify.models ()
          |> List.map (fun (m : Certify.model) ->
                 Printf.sprintf "%s(%s)" m.Certify.instance
                   (Certify.theorem_name m.Certify.theorem))
          |> List.sort String.compare
          |> String.concat " "
        in
        Printf.printf "models: %s\n%!" model_line;
        (* Phase 2 — production run, tracing on: every query runs under
           a root span and is checked against its registered model. *)
        Certify.reset_counters ();
        Tr.Store.clear ();
        Tr.enable ();
        let bad = ref 0 in
        let spans = ref 0 in
        let check = function
          | Some (v : Certify.verdict) when not v.Certify.v_ok ->
              incr bad;
              Format.printf "  %a@." Certify.pp_verdict v
          | _ -> ()
        in
        let traced instance query q =
          let (_ : int), tr =
            Tr.with_root "cli.query"
              ~attrs:[ ("instance", Tr.Str instance); ("k", Tr.Int k) ]
              (fun () -> List.length (query q))
          in
          match tr with
          | None -> die "tracing enabled but no trace recorded"
          | Some tr ->
              spans := !spans + Tr.span_count tr;
              check (Certify.certify_trace tr)
        in
        Array.iter
          (fun q ->
            traced "interval-t1" (fun q -> IInst.Topk_t1.query t1 q ~k) q;
            traced "interval-t2" (fun q -> IInst.Topk_t2.query t2 q ~k) q;
            (* The scattered query records its own root; its total cost
               (caller + every leg) is certified from the result. *)
            let r = Scatter.query sc q ~k in
            check
              (Certify.evaluate ~instance:"intervals" ~k
                 ~visited:r.Scatter.fanout ~measured:r.Scatter.cost.Stats.ios
                 ()))
          stabs;
        Tr.disable ();
        Svc.Executor.shutdown pool;
        Printf.printf "certified: %d checked, %d violations\n"
          (Certify.checked ()) (Certify.violations ());
        Printf.printf "store: %d traces recorded, %d held, %d spans on %d \
                       direct traces\n"
          (Tr.Store.total ()) (Tr.Store.length ()) !spans (2 * queries);
        if dump > 0 then print_string (Tr.Store.export ~limit:dump ());
        if !bad > 0 || Certify.violations () > 0 then
          die "%d certified bound violations" (Certify.violations ());
        Printf.printf "trace: OK (0 violations)\n")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Fit per-reduction cost models on a calibration workload, then \
          run traced queries (Theorem 1, Theorem 2, scatter-gather) and \
          certify every measured cost against the paper's bounds; exits \
          non-zero on any violation.")
    Term.(
      const run $ n_arg $ k_arg $ seed_arg $ queries_arg $ shards_arg
      $ workers_arg $ dump_arg $ block_arg)

(* --- ingest-bench --- *)

let ingest_bench_cmd =
  let module Svc = Topk_service in
  let module Stats = Topk_em.Stats in
  let module Certify = Topk_trace.Certify in
  let module IInst = Topk_interval.Instances in
  let module I = Topk_interval.Interval in
  let module Ing = Topk_ingest.Ingest.Make (IInst.Topk_t2) in
  let updates_arg =
    Arg.(
      value & opt int 10_000
      & info [ "updates" ] ~docv:"U"
          ~doc:"Inserts + deletes in the update stream.")
  in
  let queries_arg =
    Arg.(
      value & opt int 1_000
      & info [ "queries" ] ~docv:"Q"
          ~doc:"Queries interleaved with the update stream.")
  in
  let workers_arg =
    Arg.(
      value & opt int 4
      & info [ "workers" ] ~docv:"W"
          ~doc:"Worker domains running background merges.")
  in
  let write_ratio_arg =
    Arg.(
      value & opt float 0.7
      & info [ "write-ratio" ] ~docv:"P"
          ~doc:
            "Fraction of updates that insert a fresh element; the rest \
             delete a live one.  In (0,1].")
  in
  let buffer_cap_arg =
    Arg.(
      value & opt int 256
      & info [ "buffer-cap" ] ~docv:"C" ~doc:"Update-log capacity.")
  in
  let fanout_arg =
    Arg.(
      value & opt int 4
      & info [ "fanout" ] ~docv:"F" ~doc:"Merge arity per level (>= 2).")
  in
  let no_kill_arg =
    Arg.(
      value & flag
      & info [ "no-kill" ]
          ~doc:"Don't kill (and respawn) a merge worker mid-stream.")
  in
  let run n k seed updates queries workers write_ratio buffer_cap fanout
      no_kill block =
    validate_common ~n ~k;
    require_pos "updates" updates;
    require_pos "queries" queries;
    require_pos "workers" workers;
    require_pos "buffer-cap" buffer_cap;
    if not (write_ratio > 0. && write_ratio <= 1.) then
      die "write-ratio must be in (0,1] (got %g)" write_ratio;
    if fanout < 2 then die "fanout must be >= 2 (got %d)" fanout;
    with_model block (fun () ->
        let rng = Topk_util.Rng.create seed in
        Printf.printf
          "ingest-bench: n=%d updates=%d queries=%d workers=%d k=%d \
           write-ratio=%g buffer-cap=%d fanout=%d%s\n%!"
          n updates queries workers k write_ratio buffer_cap fanout
          (if no_kill then "" else " (+1 injected merge-worker crash)");
        let base =
          Topk_interval.Interval.of_spans rng
            (Topk_util.Gen.intervals rng ~shape:Topk_util.Gen.Mixed_intervals
               ~n)
        in
        let pool = Svc.Executor.create ~workers () in
        let t =
          Ing.create ~params:(IInst.params ()) ~buffer_cap ~fanout ~pool base
        in
        let metrics = Svc.Executor.metrics pool in
        (* The seeded update stream: fresh ids insert, live ids delete. *)
        let next_id = ref (n + 1) in
        let live = Hashtbl.create (2 * n) in
        Array.iter (fun (e : I.t) -> Hashtbl.replace live e.I.id e) base;
        let fresh_elem () =
          let id = !next_id in
          incr next_id;
          let lo = Topk_util.Rng.uniform rng in
          let hi =
            Float.min 1.0 (lo +. 0.02 +. (0.3 *. Topk_util.Rng.uniform rng))
          in
          I.make ~id ~lo ~hi
            ~weight:(1000. *. Topk_util.Rng.uniform rng)
            ()
        in
        let one_update () =
          let insert () =
            let e = fresh_elem () in
            Hashtbl.replace live e.I.id e;
            Ing.insert t e
          in
          if Topk_util.Rng.uniform rng <= write_ratio then insert ()
          else begin
            (* Probe for a live victim; fall back to an insert when the
               sampling misses (the live set only shrinks under heavy
               delete ratios, so a bounded probe is enough). *)
            let victim = ref None in
            let tries = ref 0 in
            while !victim = None && !tries < 64 do
              incr tries;
              let id = 1 + Topk_util.Rng.int rng (!next_id - 1) in
              match Hashtbl.find_opt live id with
              | Some e -> victim := Some e
              | None -> ()
            done;
            match !victim with
            | Some e ->
                Hashtbl.remove live e.I.id;
                Ing.delete t e
            | None -> insert ()
          end
        in
        (* Exactness: every answer must equal the from-scratch oracle
           over the surviving set of the same pinned epoch.

           Certification: the Dynamic(T2) constant depends on the
           tombstone/override density the stream settles into (more
           overrides mean more staged-doubling rounds per run), so the
           model is fitted from the first tenth of the {e real}
           interleaved stream — a synthetic pre-stream warmup
           underestimates it — and certifies the remainder. *)
        let instance = "ingest(interval-t2)" in
        let cal_target = max 32 (queries / 10) in
        let cal_samples = ref [] in
        let fitted = ref false in
        let headroom = ref 0.0 in
        let b = float_of_int (Topk_em.Config.current ()).Topk_em.Config.b in
        let logb x =
          Float.max 1. (log (Float.max 2. x) /. log (Float.max 2. b))
        in
        let fit_model () =
          Certify.register
            (Certify.fit ~instance ~theorem:(Certify.Dynamic Certify.T2)
               ~n:(n + updates) ~margin:3.0
               ~q_pri:(logb (float_of_int (n + updates)))
               ~q_max:(logb (float_of_int (n + updates)))
               (List.rev !cal_samples));
          Certify.reset_counters ();
          fitted := true
        in
        let mismatched = ref 0 and checked = ref 0 in
        let ids l = List.map (fun (e : I.t) -> e.I.id) l in
        let do_query () =
          let q = Topk_util.Rng.uniform rng in
          let view = Ing.pin t in
          let answer, cost =
            Stats.measure (fun () -> Ing.query_view view q ~k)
          in
          let truth =
            Topk_util.Select.top_k ~cmp:I.compare_weight k
              (List.filter (fun e -> I.contains e q) (Ing.view_live view))
          in
          incr checked;
          if ids answer <> ids truth then begin
            incr mismatched;
            if !mismatched <= 3 then
              Printf.printf
                "  MISMATCH at epoch %d (q=%g k=%d): got %d ids, oracle %d\n"
                (Ing.view_epoch view) q k (List.length answer)
                (List.length truth)
          end;
          let runs = Ing.view_runs view in
          if not !fitted then begin
            cal_samples := (k, Some runs, cost.Stats.ios) :: !cal_samples;
            if List.length !cal_samples >= cal_target then fit_model ()
          end
          else begin
            (match Certify.lookup instance with
             | Some m ->
                 let bound = Certify.bound m ~k ~visited:runs in
                 headroom :=
                   Float.max !headroom
                     (float_of_int cost.Stats.ios /. Float.max 1e-9 bound)
             | None -> ());
            ignore
              (Certify.evaluate ~instance ~k ~visited:runs
                 ~measured:cost.Stats.ios ()
                : Certify.verdict option)
          end;
          Ing.unpin view
        in
        (* The measured stream: interleave queries with updates, kill a
           merge worker a third of the way in. *)
        let t0 = Clock.now () in
        let per_query = max 1 (updates / queries) in
        let issued = ref 0 in
        for u = 1 to updates do
          one_update ();
          if u mod per_query = 0 && !issued < queries then begin
            incr issued;
            do_query ()
          end;
          if (not no_kill) && u = updates / 3 then
            Svc.Executor.inject_worker_crash pool 0
        done;
        while !issued < queries do
          incr issued;
          do_query ()
        done;
        if not !fitted then fit_model ();
        let elapsed = Clock.now () -. t0 in
        (* Settle: seal the tail of the log, drain compaction, and
           re-check a final batch of queries on the frozen structure. *)
        Ing.freeze t;
        for _ = 1 to 16 do do_query () done;
        Svc.Executor.drain pool;
        if not no_kill then begin
          let deadline = Clock.now () +. 5. in
          while
            Svc.Metrics.Counter.get metrics.Svc.Metrics.respawns = 0
            && Clock.now () < deadline
          do
            Unix.sleepf 0.005
          done
        end;
        Svc.Executor.shutdown pool;
        let agg = Stats.aggregate () in
        let get c = Svc.Metrics.Counter.get c in
        let seals = get metrics.Svc.Metrics.seals in
        let merges = get metrics.Svc.Metrics.merges in
        let respawns = get metrics.Svc.Metrics.respawns in
        let mlat = metrics.Svc.Metrics.merge_latency_us in
        Printf.printf
          "streamed %d updates + %d queries in %.3fs (%.0f ops/s): %d/%d \
           exact\n"
          updates queries elapsed
          (float_of_int (updates + queries) /. Float.max 1e-9 elapsed)
          (!checked - !mismatched) !checked;
        Printf.printf
          "ingest: size=%d epoch=%d runs=%d updates=%d seals=%d merges=%d \
           tombstones=%d epoch-lag=%d respawns=%d wedged=%b\n"
          (Ing.size t) (Ing.epoch t) (Ing.run_count t)
          (get metrics.Svc.Metrics.updates)
          seals merges
          (get metrics.Svc.Metrics.tombstones)
          (Svc.Metrics.Gauge.get metrics.Svc.Metrics.epoch_lag)
          respawns (Ing.wedged t);
        Printf.printf
          "merge latency: %d merges, mean %.0fus, p95 %dus, max %dus\n"
          (Svc.Metrics.Histogram.count mlat)
          (Svc.Metrics.Histogram.mean mlat)
          (Svc.Metrics.Histogram.percentile mlat 0.95)
          (Svc.Metrics.Histogram.max_value mlat)
          ;
        Printf.printf
          "cost: %d I/Os aggregate (merge I/O included); certified: %d \
           checked, %d violations (worst headroom %.2f of bound)\n"
          agg.Stats.ios (Certify.checked ()) (Certify.violations ())
          !headroom;
        (* Hard failures: this bench exists to catch them. *)
        if !mismatched > 0 then
          die "%d answers disagree with the from-scratch epoch oracle"
            !mismatched;
        if Certify.violations () > 0 then
          die "%d dynamic cost-bound violations" (Certify.violations ());
        if seals = 0 then die "the update stream never sealed the buffer";
        if merges = 0 then die "compaction never merged a level";
        if Ing.wedged t then die "compaction wedged (merge failed permanently)";
        if (not no_kill) && respawns = 0 then
          die "killed merge worker 0 but the supervisor never respawned it";
        if agg.Stats.ios <= 0 then
          die "no I/O reached the aggregate EM accounting";
        Printf.printf
          "ingest-bench: OK (%d exact answers across %d epochs under live \
           compaction)\n"
          !checked (Ing.epoch t + 1))
  in
  Cmd.v
    (Cmd.info "ingest-bench"
       ~doc:
         "Stream seeded inserts/deletes into a live ingest wrapper while \
          serving interleaved queries, with background merges on a worker \
          pool (one worker killed mid-stream) — every answer must match a \
          from-scratch oracle over the surviving set at its pinned epoch, \
          and every measured cost must stay within the fitted \
          Dynamic(Theorem 2) bound.")
    Term.(
      const run $ n_arg $ k_arg $ seed_arg $ updates_arg $ queries_arg
      $ workers_arg $ write_ratio_arg $ buffer_cap_arg $ fanout_arg
      $ no_kill_arg $ block_arg)

(* --- crash-bench --- *)

let crash_bench_cmd =
  let module IInst = Topk_interval.Instances in
  let module I = Topk_interval.Interval in
  let module Disk = Topk_durable.Disk in
  let module Store = Topk_durable.Store in
  let module DS = Topk_durable.Store.Make (IInst.Topk_t2) in
  let module Svc = Topk_service in
  let updates_arg =
    Arg.(
      value & opt int 400
      & info [ "updates" ] ~docv:"U"
          ~doc:"Inserts + deletes in the update stream.")
  in
  let crashes_arg =
    Arg.(
      value & opt int 60
      & info [ "crashes" ] ~docv:"C"
          ~doc:"Crash points swept per durability mode.")
  in
  let buffer_cap_arg =
    Arg.(
      value & opt int 64
      & info [ "buffer-cap" ] ~docv:"B" ~doc:"Update-log capacity.")
  in
  let fanout_arg =
    Arg.(
      value & opt int 2
      & info [ "fanout" ] ~docv:"F" ~doc:"Merge arity per level (>= 2).")
  in
  let checkpoint_every_arg =
    Arg.(
      value & opt int 2
      & info [ "checkpoint-every" ] ~docv:"S"
          ~doc:"Checkpoint every S-th seal (merges always checkpoint).")
  in
  let group_arg =
    Arg.(
      value & opt int 4
      & info [ "group" ] ~docv:"G"
          ~doc:"Group-commit size for the async mode leg.")
  in
  let run n k seed updates crashes buffer_cap fanout checkpoint_every group =
    validate_common ~n ~k;
    require_pos "updates" updates;
    require_pos "crashes" crashes;
    require_pos "buffer-cap" buffer_cap;
    require_pos "checkpoint-every" checkpoint_every;
    require_pos "group" group;
    if fanout < 2 then die "fanout must be >= 2 (got %d)" fanout;
    let rng = Topk_util.Rng.create seed in
    Printf.printf
      "crash-bench: n=%d updates=%d crashes=%d/mode buffer-cap=%d fanout=%d \
       checkpoint-every=%d\n%!"
      n updates crashes buffer_cap fanout checkpoint_every;
    let base =
      Topk_interval.Interval.of_spans rng
        (Topk_util.Gen.intervals rng ~shape:Topk_util.Gen.Mixed_intervals ~n)
    in
    (* The op stream is fixed up front — identical at every crash
       point, so the from-scratch oracle over any prefix is
       well-defined. *)
    let last = Hashtbl.create (2 * n) in
    Array.iter (fun (e : I.t) -> Hashtbl.replace last e.I.id e) base;
    let next_id = ref (n + 1) in
    let ops =
      Array.init updates (fun _ ->
          let insert () =
            let id = !next_id in
            incr next_id;
            let lo = Topk_util.Rng.uniform rng in
            let hi =
              Float.min 1.0 (lo +. 0.02 +. (0.3 *. Topk_util.Rng.uniform rng))
            in
            let e =
              I.make ~id ~lo ~hi ~weight:(1000. *. Topk_util.Rng.uniform rng) ()
            in
            Hashtbl.replace last id e;
            (true, e)
          in
          if Topk_util.Rng.uniform rng <= 0.7 then insert ()
          else begin
            let victim = ref None in
            let tries = ref 0 in
            while !victim = None && !tries < 64 do
              incr tries;
              let id = 1 + Topk_util.Rng.int rng (!next_id - 1) in
              match Hashtbl.find_opt last id with
              | Some e -> victim := Some e
              | None -> ()
            done;
            match !victim with
            | Some e ->
                Hashtbl.remove last e.I.id;
                (false, e)
            | None -> insert ()
          end)
    in
    let oracle_ids r =
      let live = Hashtbl.create (2 * n) in
      Array.iter (fun (e : I.t) -> Hashtbl.replace live e.I.id ()) base;
      Array.iteri
        (fun i ((ins, e) : bool * I.t) ->
          if i < r then
            if ins then Hashtbl.replace live e.I.id ()
            else Hashtbl.remove live e.I.id)
        ops;
      List.sort compare (Hashtbl.fold (fun id () a -> id :: a) live [])
    in
    let live_ids st =
      let v = DS.I.pin (DS.index st) in
      let ids =
        List.sort compare (List.map (fun (e : I.t) -> e.I.id) (DS.I.view_live v))
      in
      DS.I.unpin v;
      ids
    in
    let params = IInst.params () in
    let build mode dir =
      DS.create ~params ~buffer_cap ~fanout ~mode ~checkpoint_every ~dir base
    in
    let metrics = Svc.Metrics.create () in
    let recoveries = ref 0 and violations = ref 0 and swept = ref 0 in
    let phase_hits = Hashtbl.create 8 in
    let run_mode mode mode_name =
      (* Profile pass: count this workload's disk ops and label each
         with the phase it belongs to. *)
      let profile_dir = fresh_scratch (mode_name ^ "-profile") in
      Disk.clear ();
      Disk.reset_ops ();
      Disk.set_recording true;
      let st = build mode profile_dir in
      Array.iter (fun (ins, e) -> if ins then DS.insert st e else DS.delete st e) ops;
      DS.close st;
      Disk.set_recording false;
      let total_ops = Disk.op_count () in
      let phase_of = Hashtbl.create total_ops in
      List.iter (fun (i, p) -> Hashtbl.replace phase_of i p) (Disk.phase_log ());
      (match DS.recover ~params ~buffer_cap ~fanout ~mode ~dir:profile_dir () with
      | None -> die "%s: the crash-free profile run lost its recovery root" mode_name
      | Some st' ->
          if live_ids st' <> oracle_ids updates then
            die "%s: crash-free recovery disagrees with the oracle" mode_name;
          DS.close st');
      rm_rf profile_dir;
      if total_ops < crashes then
        Printf.printf
          "  %s: only %d disk ops; sweeping each once\n%!" mode_name total_ops;
      (* Evenly spaced crash points over the whole op stream, plus one
         directed point for any phase the spacing missed — rare phases
         (a seal that checkpoints between merges) must still be hit. *)
      let n_even = min crashes total_ops in
      let chosen = Hashtbl.create n_even in
      for i = 1 to n_even do
        Hashtbl.replace chosen (max 1 (i * total_ops / n_even)) ()
      done;
      let first_op_of ph =
        Hashtbl.fold
          (fun i p best ->
            if p <> ph then best
            else match best with Some b when b <= i -> best | _ -> Some i)
          phase_of None
      in
      let covered ph =
        Hashtbl.fold
          (fun c () hit -> hit || Hashtbl.find_opt phase_of c = Some ph)
          chosen false
      in
      List.iter
        (fun ph ->
          if not (covered ph) then
            match first_op_of ph with
            | Some i -> Hashtbl.replace chosen i ()
            | None -> ())
        [ "wal-append"; "seal"; "merge"; "manifest" ];
      let points = List.sort compare (Hashtbl.fold (fun c () a -> c :: a) chosen []) in
      List.iter (fun c ->
        incr swept;
        (match Hashtbl.find_opt phase_of c with
        | Some p ->
            Hashtbl.replace phase_hits p (1 + Option.value ~default:0 (Hashtbl.find_opt phase_hits p))
        | None -> ());
        let dir = fresh_scratch (Printf.sprintf "%s-%d" mode_name c) in
        Disk.reset_ops ();
        Disk.install (Disk.plan ~crash_at:c ~seed:(seed lxor (c * 7919)) ());
        let acked = ref 0 and issued = ref 0 in
        (try
           let st = build mode dir in
           Array.iter
             (fun ((ins, e) : bool * I.t) ->
               incr issued;
               if ins then DS.insert st e else DS.delete st e;
               incr acked)
             ops;
           DS.close st
         with Disk.Crash -> ());
        Disk.clear ();
        let fail fmt =
          Printf.ksprintf
            (fun msg ->
              incr violations;
              if !violations <= 5 then
                Printf.printf "  VIOLATION %s@op%d: %s\n%!" mode_name c msg)
            fmt
        in
        (match DS.recover ~params ~buffer_cap ~fanout ~mode ~metrics ~dir () with
        | None ->
            if !acked > 0 then
              fail "no recovery root but %d updates were acknowledged" !acked
        | Some st' ->
            incr recoveries;
            let r = DS.recovered_seq st' in
            if r > !issued then fail "recovered %d ops, only %d issued" r !issued;
            if mode = Store.Sync && r < !acked then
              fail "recovered prefix %d < %d sync-acknowledged" r !acked;
            let got = live_ids st' in
            let want = oracle_ids r in
            if got <> want then
              fail "surviving set (%d ids) differs from oracle prefix %d (%d ids)"
                (List.length got) r (List.length want);
            DS.close st');
        rm_rf dir)
        points
    in
    run_mode Store.Sync "sync";
    run_mode (Store.Async group) (Printf.sprintf "async%d" group);
    let torn = Svc.Metrics.Counter.get metrics.Svc.Metrics.torn_tails in
    let cksum = Svc.Metrics.Counter.get metrics.Svc.Metrics.checksum_failures in
    Printf.printf
      "swept %d crash points: %d recoveries, %d torn tails truncated, %d \
       checksum failures\n"
      !swept !recoveries torn cksum;
    let phases = [ "wal-append"; "seal"; "merge"; "manifest" ] in
    Printf.printf "phase coverage:%s\n"
      (String.concat ""
         (List.map
            (fun p ->
              Printf.sprintf " %s=%d" p
                (Option.value ~default:0 (Hashtbl.find_opt phase_hits p)))
            phases));
    (* Hard failures: this bench exists to catch them. *)
    if !violations > 0 then
      die "%d acked-prefix/oracle violations across %d crash points" !violations
        !swept;
    (* No corruption was injected, so any checksum failure is an
       integrity bug in the durable formats themselves. *)
    if cksum > 0 then die "%d checksum failures without injected corruption" cksum;
    List.iter
      (fun p ->
        if not (Hashtbl.mem phase_hits p) then
          die "no crash point landed in the %s phase (op stream too small?)" p)
      phases;
    Printf.printf "crash-bench: OK (%d crash points, %d recoveries, 0 violations)\n"
      !swept !recoveries
  in
  Cmd.v
    (Cmd.info "crash-bench"
       ~doc:
         "Sweep seeded crash points over a durable ingestion stream: at \
          each point the simulated machine dies (torn tails, uncertain \
          renames), recovery rebuilds the index from manifest + snapshot + \
          WAL replay, and the surviving set must equal a from-scratch \
          oracle over a prefix of the issued updates containing every \
          sync-acknowledged one.  Hard-fails on any violation, any \
          checksum failure, or a phase never hit.")
    Term.(
      const run $ n_arg $ k_arg $ seed_arg $ updates_arg $ crashes_arg
      $ buffer_cap_arg $ fanout_arg $ checkpoint_every_arg $ group_arg)

(* --- repl-bench --- *)

let repl_bench_cmd =
  let module IInst = Topk_interval.Instances in
  let module I = Topk_interval.Interval in
  let module Rng = Topk_util.Rng in
  let module Transport = Topk_repl.Transport in
  let module G = Topk_repl.Group.Make (IInst.Topk_t2) in
  let module Svc = Topk_service in
  let base_arg =
    Arg.(
      value & opt int 400
      & info [ "n" ] ~docv:"N" ~doc:"Base elements shared by every node.")
  in
  let updates_arg =
    Arg.(
      value & opt int 140
      & info [ "updates" ] ~docv:"U"
          ~doc:"Inserts + deletes in the update stream, per fault point.")
  in
  let points_arg =
    Arg.(
      value & opt int 120
      & info [ "points" ] ~docv:"P"
          ~doc:"Seeded fault points swept (the full law wants >= 100).")
  in
  let replicas_arg =
    Arg.(
      value & opt int 3
      & info [ "replicas" ] ~docv:"R" ~doc:"Read replicas per group (>= 2).")
  in
  let quorum_arg =
    Arg.(
      value & opt int 2
      & info [ "quorum" ] ~docv:"Q"
          ~doc:"Replica acks a synced write waits for (in [1, R]).")
  in
  let buffer_cap_arg =
    Arg.(
      value & opt int 16
      & info [ "buffer-cap" ] ~docv:"B" ~doc:"Update-log capacity.")
  in
  let fanout_arg =
    Arg.(
      value & opt int 2
      & info [ "fanout" ] ~docv:"F" ~doc:"Merge arity per level (>= 2).")
  in
  let retain_arg =
    Arg.(
      value & opt int 48
      & info [ "retain" ] ~docv:"W"
          ~doc:
            "Outlog retention in entries: a replica partitioned for longer \
             is caught up by snapshot install.")
  in
  let clean_arg =
    Arg.(
      value & flag
      & info [ "clean" ]
          ~doc:
            "Disable randomized frame faults (drop/duplicate/reorder/delay); \
             scheduled partitions and primary failures still run — \
             clean-path sanity.")
  in
  let run n k seed updates points replicas quorum buffer_cap fanout retain
      clean =
    validate_common ~n ~k;
    require_pos "updates" updates;
    require_pos "points" points;
    require_pos "buffer-cap" buffer_cap;
    require_pos "retain" retain;
    if replicas < 2 then die "replicas must be >= 2 (got %d)" replicas;
    if quorum < 1 || quorum > replicas then
      die "quorum must be in [1, replicas] (got %d)" quorum;
    if fanout < 2 then die "fanout must be >= 2 (got %d)" fanout;
    Printf.printf
      "repl-bench: n=%d updates=%d points=%d replicas=%d quorum=%d \
       buffer-cap=%d fanout=%d retain=%d\n%!"
      n updates points replicas quorum buffer_cap fanout retain;
    let params = IInst.params () in
    let mk_elem rng id =
      let lo = Rng.uniform rng in
      let hi = Float.min 1.0 (lo +. 0.02 +. (0.3 *. Rng.uniform rng)) in
      (* Weights are distinct by construction (strictly increasing in
         id), so the oracle's top-k is unique and answers compare by
         id set. *)
      I.make ~id ~lo ~hi ~weight:(float_of_int id +. (0.5 *. Rng.uniform rng)) ()
    in
    let base =
      let rng = Rng.create seed in
      Array.init n (fun i -> mk_elem rng (i + 1))
    in
    let metrics = Svc.Metrics.create () in
    let phases = [| "ship"; "ack"; "install"; "promote" |] in
    let phase_hits = Hashtbl.create 8 in
    let violations = ref 0
    and converged = ref 0
    and swept = ref 0
    and rw_checks = ref 0
    and installs_total = ref 0
    and failovers_total = ref 0 in
    let fail point phase fmt =
      Printf.ksprintf
        (fun msg ->
          incr violations;
          if !violations <= 5 then
            Printf.printf "  VIOLATION point=%d phase=%s: %s\n%!" point phase
              msg)
        fmt
    in
    for p = 0 to points - 1 do
      incr swept;
      let phase = phases.(p mod Array.length phases) in
      Hashtbl.replace phase_hits phase
        (1 + Option.value ~default:0 (Hashtbl.find_opt phase_hits phase));
      let pseed = seed lxor (p * 7919) lxor 0x5bd1 in
      let rng = Rng.create pseed in
      let plan =
        if clean then Transport.clean ~seed:pseed
        else
          match phase with
          | "ship" ->
              Transport.plan ~drop:0.25 ~reorder:0.2 ~delay_max:2 ~seed:pseed
                ()
          | "ack" -> Transport.plan ~dup:0.2 ~delay_max:1 ~seed:pseed ()
          | "install" -> Transport.plan ~drop:0.1 ~seed:pseed ()
          | _ -> Transport.plan ~drop:0.15 ~dup:0.1 ~delay_max:1 ~seed:pseed ()
      in
      let g =
        G.create ~params ~buffer_cap ~fanout ~retain ~plan ~metrics ~quorum
          ~max_pump:60 ~name:"repl" ~replicas base
      in
      (* The surviving timeline, newest first; op at seq [s] is element
         [hist_len - s] from the head.  A failover truncates it to the
         promoted head — which must not lose a synced write. *)
      let hist = ref [] and hist_len = ref 0 in
      let push op =
        hist := op :: !hist;
        incr hist_len
      in
      let truncate_to h =
        while !hist_len > h do
          hist := List.tl !hist;
          decr hist_len
        done
      in
      let live_at r =
        let tbl = Hashtbl.create (2 * n) in
        Array.iter (fun (e : I.t) -> Hashtbl.replace tbl e.I.id e) base;
        List.iteri
          (fun i ((ins, e) : bool * I.t) ->
            if i + 1 <= r then
              if ins then Hashtbl.replace tbl e.I.id e
              else Hashtbl.remove tbl e.I.id)
          (List.rev !hist);
        tbl
      in
      let oracle_ids r =
        List.sort compare (Hashtbl.fold (fun id _ a -> id :: a) (live_at r) [])
      in
      let synced_seqs = ref [] and last_synced = ref 0 in
      let next_id = ref (n + 1) in
      let del_pool = ref [] in
      let victim = 1 + (p / Array.length phases mod replicas) in
      let promote_at =
        match phase with
        | "promote" -> 1 + Rng.int rng (updates - 1)
        | _ -> max_int
      in
      let partition_at, heal_at =
        match phase with
        | "install" -> ((updates / 4) + 1, (updates / 4) + 1 + (updates / 2))
        | "ack" -> ((updates / 5) + 1, (updates / 5) + 1 + (updates / 3))
        | _ -> (max_int, max_int)
      in
      let cut_acks () =
        for r = 0 to G.nodes g - 1 do
          if r <> G.primary g && G.alive g r then
            Transport.cut (G.transport g) ~src:r ~dst:(G.primary g)
        done
      in
      let heal_acks () =
        for r = 0 to G.nodes g - 1 do
          if r <> G.primary g && G.alive g r then
            Transport.heal (G.transport g) ~src:r ~dst:(G.primary g)
        done
      in
      for u = 1 to updates do
        if u = promote_at then begin
          (match G.fail_primary g with
          | _new_primary ->
              incr failovers_total;
              let h = G.head g in
              List.iter
                (fun s ->
                  if s > h then
                    fail p phase
                      "synced write seq %d lost by failover (promoted head %d)"
                      s h)
                !synced_seqs;
              truncate_to h;
              synced_seqs := List.filter (fun s -> s <= h) !synced_seqs;
              last_synced := min !last_synced h;
              del_pool :=
                Hashtbl.fold
                  (fun id e acc -> if id > n then e :: acc else acc)
                  (live_at h) []
          | exception Invalid_argument msg ->
              fail p phase "failover refused: %s" msg)
        end;
        if u = partition_at then
          if phase = "install" then G.partition g victim else cut_acks ();
        if u = heal_at then
          if phase = "install" then G.rejoin g victim else heal_acks ();
        let ins = Rng.uniform rng <= 0.72 || !del_pool = [] in
        let outcome =
          if ins then begin
            let e = mk_elem rng !next_id in
            incr next_id;
            del_pool := e :: !del_pool;
            push (true, e);
            G.insert g e
          end
          else begin
            let i = Rng.int rng (List.length !del_pool) in
            let e = List.nth !del_pool i in
            del_pool := List.filteri (fun j _ -> j <> i) !del_pool;
            push (false, e);
            G.delete g e
          end
        in
        if G.write_seq outcome <> !hist_len then
          fail p phase "write got seq %d, issued %d" (G.write_seq outcome)
            !hist_len;
        if G.synced outcome then begin
          synced_seqs := !hist_len :: !synced_seqs;
          last_synced := !hist_len
        end;
        (* Read-your-writes probe: a read carrying the last synced seq
           as its token must answer at or above it, exactly per the
           from-scratch oracle at the answering snapshot's seq. *)
        if u mod 13 = 0 && !last_synced > 0 then begin
          incr rw_checks;
          let q = Rng.uniform rng in
          match
            G.read
              ~consistency:(Topk_cache.Consistency.At_least !last_synced)
              g q ~k
          with
          | None -> fail p phase "read refused a satisfiable token %d"
              !last_synced
          | Some resp -> (
              match Svc.Response.seq_token resp with
              | None -> fail p phase "replicated read lost its seq token"
              | Some tok ->
                  if tok < !last_synced then
                    fail p phase "stale read: token %d under At_least floor %d" tok
                      !last_synced
                  else begin
                    let lives =
                      Hashtbl.fold (fun _ e a -> e :: a) (live_at tok) []
                    in
                    let want =
                      List.sort compare
                        (List.map
                           (fun (e : I.t) -> e.I.id)
                           (Topk_util.Select.top_k ~cmp:I.compare_weight k
                              (List.filter (fun e -> I.contains e q) lives)))
                    in
                    let got =
                      List.sort compare
                        (List.map
                           (fun (e : I.t) -> e.I.id)
                           resp.Svc.Response.answers)
                    in
                    if got <> want then
                      fail p phase
                        "replica answer at seq %d differs from the oracle" tok
                  end)
        end
      done;
      (* Heal every fault and require convergence: all live nodes catch
         up to the head and agree with the from-scratch oracle. *)
      (if phase = "install" then G.rejoin g victim
       else if phase = "ack" then heal_acks ());
      if G.settle ~max_ticks:5000 g then incr converged
      else fail p phase "group did not converge after healing";
      let want = oracle_ids (G.head g) in
      for i = 0 to G.nodes g - 1 do
        if G.alive g i then begin
          let got =
            List.sort compare
              (List.map (fun (e : I.t) -> e.I.id) (G.R.live (G.node g i)))
          in
          if got <> want then
            fail p phase "node %d's surviving set differs from the oracle" i
        end
      done;
      for i = 0 to G.nodes g - 1 do
        installs_total := !installs_total + G.R.installs (G.node g i)
      done
    done;
    Printf.printf
      "swept %d fault points: %d converged, %d read-your-writes probes, %d \
       snapshot installs, %d failovers\n"
      !swept !converged !rw_checks !installs_total !failovers_total;
    Printf.printf "phase coverage:%s\n"
      (String.concat ""
         (List.map
            (fun ph ->
              Printf.sprintf " %s=%d" ph
                (Option.value ~default:0 (Hashtbl.find_opt phase_hits ph)))
            (Array.to_list phases)));
    (* Hard failures: this bench exists to catch them. *)
    if !violations > 0 then
      die "%d consistency violations across %d fault points" !violations !swept;
    if !converged < !swept then
      die "%d fault points failed to recover" (!swept - !converged);
    Array.iter
      (fun ph ->
        if not (Hashtbl.mem phase_hits ph) then
          die "no fault point landed in the %s phase (too few points?)" ph)
      phases;
    if !installs_total = 0 then
      die "no snapshot install was exercised (retention too large?)";
    if !failovers_total = 0 then die "no failover was exercised";
    let shipped = Svc.Metrics.Counter.get metrics.Svc.Metrics.repl_frames_shipped in
    let acked = Svc.Metrics.Counter.get metrics.Svc.Metrics.repl_frames_acked in
    if shipped = 0 || acked = 0 then
      die "shipping never happened (%d shipped, %d acked)" shipped acked;
    Printf.printf
      "repl-bench: OK (%d fault points, %d recoveries, %d installs, %d \
       failovers, 0 violations)\n"
      !swept !converged !installs_total !failovers_total
  in
  Cmd.v
    (Cmd.info "repl-bench"
       ~doc:
         "Sweep seeded fault points over a replicated ingestion stream: WAL \
          frames ship to read replicas over a lossy, duplicating, \
          reordering transport; partitions force snapshot-install catch-up; \
          injected primary failures force promotion.  At every point the \
          group must reconverge, every replica answer must equal the \
          from-scratch oracle at its applied sequence, reads honouring a \
          seq token must never be stale, and no quorum-acked write may be \
          lost across failover.  Hard-fails on any violation or an \
          uncovered fault phase (ship/ack/install/promote).")
    Term.(
      const run $ base_arg $ k_arg $ seed_arg $ updates_arg $ points_arg
      $ replicas_arg $ quorum_arg $ buffer_cap_arg $ fanout_arg $ retain_arg
      $ clean_arg)

(* --- cache-bench --- *)

let cache_bench_cmd =
  let module IInst = Topk_interval.Instances in
  let module I = Topk_interval.Interval in
  let module Rng = Topk_util.Rng in
  let module Transport = Topk_repl.Transport in
  let module G = Topk_repl.Group.Make (IInst.Topk_t2) in
  let module Svc = Topk_service in
  let base_arg =
    Arg.(
      value & opt int 400
      & info [ "n" ] ~docv:"N" ~doc:"Base elements shared by every node.")
  in
  let queries_arg =
    Arg.(
      value & opt int 2400
      & info [ "queries" ] ~docv:"Q" ~doc:"Reads replayed against the group.")
  in
  let distinct_arg =
    Arg.(
      value & opt int 24
      & info [ "distinct" ] ~docv:"D"
          ~doc:"Distinct query points in the Zipf-sampled pool.")
  in
  let theta_arg =
    Arg.(
      value & opt float 1.2
      & info [ "theta" ] ~docv:"THETA"
          ~doc:"Zipf skew exponent over the query pool (> 0).")
  in
  let write_every_arg =
    Arg.(
      value & opt int 40
      & info [ "write-every" ] ~docv:"W"
          ~doc:"Interleave one insert/delete every W reads.")
  in
  let replicas_arg =
    Arg.(
      value & opt int 2
      & info [ "replicas" ] ~docv:"R" ~doc:"Read replicas in the group (>= 2).")
  in
  let min_hit_rate_arg =
    Arg.(
      value & opt float 0.5
      & info [ "min-hit-rate" ] ~docv:"H"
          ~doc:"Hard-fail below this cache hit rate (cached pass only).")
  in
  let no_cache_arg =
    Arg.(
      value & flag
      & info [ "no-cache" ]
          ~doc:
            "Run only the uncached baseline pass (oracle checks still \
             apply; hit-rate and I/O-reduction gates are skipped).")
  in
  let clean_arg =
    Arg.(
      value & flag
      & info [ "clean" ]
          ~doc:
            "Disable randomized frame faults on the replication \
             transport; the mid-run failover still happens.")
  in
  let run n k seed queries distinct theta write_every replicas min_hit_rate
      no_cache clean =
    validate_common ~n ~k;
    require_pos "queries" queries;
    require_pos "distinct" distinct;
    require_pos "write-every" write_every;
    require_pos_float "theta" theta;
    if replicas < 2 then die "replicas must be >= 2 (got %d)" replicas;
    if queries < 4 then die "queries must be >= 4 (got %d)" queries;
    if min_hit_rate < 0.0 || min_hit_rate > 1.0 then
      die "min-hit-rate must be in [0, 1] (got %g)" min_hit_rate;
    Printf.printf
      "cache-bench: n=%d queries=%d distinct=%d theta=%g write-every=%d \
       replicas=%d%s\n%!"
      n queries distinct theta write_every replicas
      (if no_cache then " (no-cache)" else "");
    let params = IInst.params () in
    let mk_elem rng id =
      let lo = Rng.uniform rng in
      let hi = Float.min 1.0 (lo +. 0.02 +. (0.3 *. Rng.uniform rng)) in
      (* Strictly increasing distinct weights: the oracle's top-k is
         unique, so answers compare by id set. *)
      I.make ~id ~lo ~hi ~weight:(float_of_int id +. (0.5 *. Rng.uniform rng)) ()
    in
    let base =
      let rng = Rng.create seed in
      Array.init n (fun i -> mk_elem rng (i + 1))
    in
    (* Zipf sampler over ranks 1..distinct: P(r) proportional to
       1/r^theta, inverted by scanning the cumulative weights. *)
    let zipf_cum =
      let c = Array.make distinct 0.0 in
      let acc = ref 0.0 in
      for r = 0 to distinct - 1 do
        acc := !acc +. (1.0 /. Float.pow (float_of_int (r + 1)) theta);
        c.(r) <- !acc
      done;
      c
    in
    let zipf rng =
      let u = Rng.uniform rng *. zipf_cum.(distinct - 1) in
      let i = ref 0 in
      while !i < distinct - 1 && zipf_cum.(!i) < u do
        incr i
      done;
      !i
    in
    let qpool =
      let rng = Rng.create (seed lxor 0x51f3) in
      Array.init distinct (fun _ -> Rng.uniform rng)
    in
    let failover_at = queries / 2 in
    (* One full replay of the identical query/update schedule; the two
       passes differ only in whether the client in front of the group
       carries an answer cache, so their charged read I/O is directly
       comparable. *)
    let sweep ~use_cache =
      let metrics = Svc.Metrics.create () in
      let plan =
        if clean then Transport.clean ~seed
        else Transport.plan ~drop:0.05 ~delay_max:1 ~seed ()
      in
      let g =
        G.create ~params ~buffer_cap:16 ~fanout:2 ~retain:64 ~plan ~metrics
          ~quorum:2 ~max_pump:120 ~name:"cache" ~replicas base
      in
      (* Cache entries are tagged with the group's (term, head), so
         the failover's term bump fences every pre-failover entry. *)
      let client =
        Svc.Client.create ~cache:use_cache ~cache_stripes:8
          ~cache_capacity:(4 * distinct) ~cache_min_cost:1 ~metrics ()
      in
      let reader =
        Svc.Client.attach client
          ~version:(fun () ->
            Topk_cache.Version.make ~term:(G.term g) ~seq:(G.head g))
          (Svc.Client.endpoint ~name:"cache" (fun ?limits:_ ?consistency q ~k ->
               match G.read ?consistency g q ~k with
               | Some resp -> resp
               | None ->
                   {
                     Svc.Response.answers = [];
                     status = Svc.Response.Failed Svc.Error.Shed;
                     summary = Svc.Response.zero_summary;
                     trace_id = None;
                     latency = 0.0;
                     worker = -1;
                     instance = "cache";
                     k;
                     seq_token = None;
                   }))
      in
      let violations = ref 0 in
      let fail fmt =
        Printf.ksprintf
          (fun msg ->
            incr violations;
            if !violations <= 5 then
              Printf.printf "  VIOLATION (%scached): %s\n%!"
                (if use_cache then "" else "un")
                msg)
          fmt
      in
      let hist = ref [] and hist_len = ref 0 in
      let push op =
        hist := op :: !hist;
        incr hist_len
      in
      let truncate_to h =
        while !hist_len > h do
          hist := List.tl !hist;
          decr hist_len
        done
      in
      let live_at r =
        let tbl = Hashtbl.create (2 * n) in
        Array.iter (fun (e : I.t) -> Hashtbl.replace tbl e.I.id e) base;
        List.iteri
          (fun i ((ins, e) : bool * I.t) ->
            if i + 1 <= r then
              if ins then Hashtbl.replace tbl e.I.id e
              else Hashtbl.remove tbl e.I.id)
          (List.rev !hist);
        tbl
      in
      let wrng = Rng.create (seed lxor 0x9e37)
      and qrng = Rng.create (seed lxor 0x7f4a) in
      let last_synced = ref 0 and synced_seqs = ref [] in
      let next_id = ref (n + 1) in
      let del_pool = ref [] in
      let reads = ref 0
      and rw_probes = ref 0
      and served_hits = ref 0
      and read_ios = ref 0
      and failovers = ref 0 in
      for i = 1 to queries do
        if i = failover_at then begin
          (match G.fail_primary g with
          | _new_primary ->
              incr failovers;
              let h = G.head g in
              List.iter
                (fun s ->
                  if s > h then
                    fail "synced write seq %d lost by failover (head %d)" s h)
                !synced_seqs;
              truncate_to h;
              synced_seqs := List.filter (fun s -> s <= h) !synced_seqs;
              last_synced := min !last_synced h;
              del_pool :=
                Hashtbl.fold
                  (fun id e acc -> if id > n then e :: acc else acc)
                  (live_at h) []
          | exception Invalid_argument msg -> fail "failover refused: %s" msg);
          ignore (G.settle ~max_ticks:4000 g)
        end;
        if i mod write_every = 0 then begin
          let ins = Rng.uniform wrng <= 0.7 || !del_pool = [] in
          let outcome =
            if ins then begin
              let e = mk_elem wrng !next_id in
              incr next_id;
              del_pool := e :: !del_pool;
              push (true, e);
              G.insert g e
            end
            else begin
              let j = Rng.int wrng (List.length !del_pool) in
              let e = List.nth !del_pool j in
              del_pool := List.filteri (fun l _ -> l <> j) !del_pool;
              push (false, e);
              G.delete g e
            end
          in
          if G.write_seq outcome <> !hist_len then
            fail "write got seq %d, issued %d" (G.write_seq outcome) !hist_len;
          if G.synced outcome then begin
            synced_seqs := !hist_len :: !synced_seqs;
            last_synced := !hist_len
          end;
          (* Let the replicas catch up so the hot keys re-warm at the
             new head; the cache must drop to the recomputed answers
             on its own — staleness here is a hard violation below. *)
          ignore (G.settle ~max_ticks:4000 g)
        end;
        let q = qpool.(zipf qrng) in
        let consistency, floor_tok =
          if i mod 7 = 0 && !last_synced > 0 then begin
            incr rw_probes;
            (Topk_cache.Consistency.At_least !last_synced, !last_synced)
          end
          else if i mod 11 = 0 then (Topk_cache.Consistency.Max_lag 3, 0)
          else (Topk_cache.Consistency.Any, 0)
        in
        incr reads;
        match Svc.Client.query_sync ~consistency reader q ~k with
        | { Svc.Response.status = Svc.Response.Failed Svc.Error.Shed; _ } ->
            fail "read %d refused (%s)" i
              (Topk_cache.Consistency.to_string consistency)
        | resp -> (
            (match resp.Svc.Response.status with
            | Svc.Response.Complete -> ()
            | st ->
                fail "read %d not complete: %s" i
                  (Svc.Response.status_string st));
            match Svc.Response.seq_token resp with
            | None -> fail "read %d lost its seq token" i
            | Some tok ->
                if tok > !hist_len then
                  fail
                    "read %d answered at seq %d beyond the surviving \
                     timeline %d (a fenced pre-failover answer leaked)"
                    i tok !hist_len
                else if tok < floor_tok then
                  fail "stale read %d: token %d under floor %d" i tok
                    floor_tok
                else begin
                  let lives =
                    Hashtbl.fold (fun _ e a -> e :: a) (live_at tok) []
                  in
                  let want =
                    List.sort compare
                      (List.map
                         (fun (e : I.t) -> e.I.id)
                         (Topk_util.Select.top_k ~cmp:I.compare_weight k
                            (List.filter (fun e -> I.contains e q) lives)))
                  in
                  let got =
                    List.sort compare
                      (List.map
                         (fun (e : I.t) -> e.I.id)
                         resp.Svc.Response.answers)
                  in
                  if got <> want then
                    fail
                      "read %d differs from the from-scratch oracle at seq \
                       %d (%s)"
                      i tok
                      (Topk_cache.Consistency.to_string consistency);
                  let ios =
                    (Svc.Response.cost resp).Topk_em.Stats.ios
                  in
                  read_ios := !read_ios + ios;
                  if resp.Svc.Response.worker = -1 then begin
                    incr served_hits;
                    if ios <> 0 then
                      fail "cache hit on read %d charged %d I/Os" i ios
                  end
                end)
      done;
      if not (G.settle ~max_ticks:8000 g) then
        fail "group did not converge after the replay";
      let want_final =
        List.sort compare
          (Hashtbl.fold (fun id _ a -> id :: a) (live_at !hist_len) [])
      in
      for j = 0 to G.nodes g - 1 do
        if G.alive g j then begin
          let got =
            List.sort compare
              (List.map (fun (e : I.t) -> e.I.id) (G.R.live (G.node g j)))
          in
          if got <> want_final then
            fail "node %d's surviving set differs from the oracle" j
        end
      done;
      let hits = Svc.Metrics.Counter.get metrics.Svc.Metrics.cache_hits in
      let misses = Svc.Metrics.Counter.get metrics.Svc.Metrics.cache_misses in
      ( !violations,
        !reads,
        !rw_probes,
        !served_hits,
        !read_ios,
        !failovers,
        hits,
        misses )
    in
    let v_u, reads_u, probes_u, _, ios_u, fo_u, _, _ =
      sweep ~use_cache:false
    in
    Printf.printf
      "uncached: %d reads (%d read-your-writes probes), %d charged read \
       I/Os, %d failover\n%!"
      reads_u probes_u ios_u fo_u;
    if no_cache then begin
      if v_u > 0 then die "%d violations in the uncached pass" v_u;
      if fo_u <> 1 then die "expected exactly 1 failover, got %d" fo_u;
      Printf.printf "cache-bench: OK (uncached pass only, 0 violations)\n"
    end
    else begin
      let v_c, reads_c, probes_c, hits_c, ios_c, fo_c, m_hits, m_misses =
        sweep ~use_cache:true
      in
      let lookups = m_hits + m_misses in
      let rate =
        if lookups = 0 then 0.0
        else float_of_int m_hits /. float_of_int lookups
      in
      Printf.printf
        "cached:   %d reads (%d read-your-writes probes), %d charged read \
         I/Os, %d failover\n"
        reads_c probes_c ios_c fo_c;
      Printf.printf "          %d hits / %d lookups (rate %.3f), %d served \
                     with zero I/O\n%!"
        m_hits lookups rate hits_c;
      if v_u > 0 then die "%d violations in the uncached pass" v_u;
      if v_c > 0 then die "%d violations in the cached pass" v_c;
      if fo_u <> 1 || fo_c <> 1 then
        die "expected exactly 1 failover per pass (got %d/%d)" fo_u fo_c;
      if hits_c = 0 then die "the cache never served a hit";
      if hits_c <> m_hits then
        die "metrics disagree with served hits (%d counted, %d served)"
          m_hits hits_c;
      if rate < min_hit_rate then
        die "hit rate %.3f below the required %.3f" rate min_hit_rate;
      if ios_c >= ios_u then
        die "caching did not reduce charged read I/O (%d cached >= %d \
             uncached)"
          ios_c ios_u;
      Printf.printf
        "cache-bench: OK (hit rate %.3f, read I/O %d -> %d, -%.1f%%, 0 \
         violations)\n"
        rate ios_u ios_c
        (100.0 *. (1.0 -. (float_of_int ios_c /. float_of_int ios_u)))
    end
  in
  Cmd.v
    (Cmd.info "cache-bench"
       ~doc:
         "Replay a Zipf-skewed query stream through a client with the \
          epoch-consistent answer cache on, in front of a replicated group, \
          interleaved with ingestion and one primary failover, then replay \
          the identical schedule uncached.  Every answer (hit or miss) must \
          equal the from-scratch oracle at its seq token, read-your-writes \
          probes must never be stale, cache hits must charge zero I/O, the \
          skewed run must reach the required hit rate, and total charged \
          read I/O must drop versus the uncached pass.  Hard-fails on any \
          violation.")
    Term.(
      const run $ base_arg $ k_arg $ seed_arg $ queries_arg $ distinct_arg
      $ theta_arg $ write_every_arg $ replicas_arg $ min_hit_rate_arg
      $ no_cache_arg $ clean_arg)

(* --- sched-bench --- *)

let sched_bench_cmd =
  let module Svc = Topk_service in
  let module Lane = Topk_service.Lane in
  let module Sched = Topk_service.Sched in
  let module Stats = Topk_em.Stats in
  let module Rng = Topk_util.Rng in
  let module IInst = Topk_interval.Instances in
  let module I = Topk_interval.Interval in
  let module Ing = Topk_ingest.Ingest.Make (IInst.Topk_t2) in
  let n_arg =
    Arg.(
      value & opt int 1500
      & info [ "n" ] ~docv:"N" ~doc:"Base elements in the live index.")
  in
  let rounds_arg =
    Arg.(
      value & opt int 25
      & info [ "rounds" ] ~docv:"R"
          ~doc:"Update/storm/query rounds per pass.")
  in
  let qpr_arg =
    Arg.(
      value & opt int 16
      & info [ "queries-per-round" ] ~docv:"Q"
          ~doc:"Interactive queries issued per round.")
  in
  let upr_arg =
    Arg.(
      value & opt int 160
      & info [ "updates-per-round" ] ~docv:"U"
          ~doc:"Inserts/deletes applied per round (feeds the merge storm).")
  in
  let storm_arg =
    Arg.(
      value & opt int 8
      & info [ "storm" ] ~docv:"S"
          ~doc:"Synthetic batch-lane storm tasks submitted per round.")
  in
  let storm_ms_arg =
    Arg.(
      value & opt float 3.0
      & info [ "storm-ms" ] ~docv:"MS"
          ~doc:"Wall-clock milliseconds each storm task burns.")
  in
  let distinct_arg =
    Arg.(
      value & opt int 16
      & info [ "distinct" ] ~docv:"D"
          ~doc:"Distinct query points in the Zipf-sampled pool.")
  in
  let theta_arg =
    Arg.(
      value & opt float 1.2
      & info [ "theta" ] ~docv:"THETA"
          ~doc:"Zipf skew exponent over the query pool (> 0).")
  in
  let workers_arg =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"W" ~doc:"Worker domains in the pool.")
  in
  let buffer_cap_arg =
    Arg.(
      value & opt int 128
      & info [ "buffer-cap" ] ~docv:"C" ~doc:"Update-log capacity.")
  in
  let fanout_arg =
    Arg.(
      value & opt int 2
      & info [ "fanout" ] ~docv:"F" ~doc:"Merge arity per level (>= 2).")
  in
  let only_arg =
    Arg.(
      value
      & opt (enum [ ("both", `Both); ("lanes", `Lanes); ("unified", `Unified) ])
          `Both
      & info [ "only" ] ~docv:"PASS"
          ~doc:
            "Run only one pass: $(b,lanes) (isolated), $(b,unified) \
             (single-queue baseline), or $(b,both) (default; also gates \
             the p99 comparison).")
  in
  let run n k seed rounds qpr upr storm storm_ms distinct theta workers
      buffer_cap fanout only block =
    validate_common ~n ~k;
    require_pos "rounds" rounds;
    require_pos "queries-per-round" qpr;
    require_pos "updates-per-round" upr;
    require_pos "storm" storm;
    require_pos "distinct" distinct;
    require_pos "workers" workers;
    require_pos "buffer-cap" buffer_cap;
    require_pos_float "storm-ms" storm_ms;
    require_pos_float "theta" theta;
    if fanout < 2 then die "fanout must be >= 2 (got %d)" fanout;
    with_model block (fun () ->
        Printf.printf
          "sched-bench: n=%d rounds=%d queries/round=%d updates/round=%d \
           storm=%dx%.1fms workers=%d k=%d buffer-cap=%d fanout=%d\n%!"
          n rounds qpr upr storm storm_ms workers k buffer_cap fanout;
        (* The Zipf query pool is fixed up front, shared by both
           passes. *)
        let qpool =
          let qrng = Rng.create (seed lxor 0x51f3) in
          Array.init distinct (fun _ -> Rng.uniform qrng)
        in
        let zipf_cum =
          let c = Array.make distinct 0.0 in
          let acc = ref 0.0 in
          for r = 0 to distinct - 1 do
            acc := !acc +. (1.0 /. Float.pow (float_of_int (r + 1)) theta);
            c.(r) <- !acc
          done;
          c
        in
        let zipf rng =
          let u = Rng.uniform rng *. zipf_cum.(distinct - 1) in
          let i = ref 0 in
          while !i < distinct - 1 && zipf_cum.(!i) < u do
            incr i
          done;
          !i
        in
        (* Strictly increasing distinct weights: the oracle's top-k is
           unique, so answers compare by id list. *)
        let mk_elem rng id =
          let lo = Rng.uniform rng in
          let hi = Float.min 1.0 (lo +. 0.02 +. (0.3 *. Rng.uniform rng)) in
          I.make ~id ~lo ~hi
            ~weight:(float_of_int id +. (0.5 *. Rng.uniform rng))
            ()
        in
        let ids l = List.map (fun (e : I.t) -> e.I.id) l in
        let p99 latencies =
          let a = Array.of_list latencies in
          Array.sort Float.compare a;
          let len = Array.length a in
          a.(max 0 (int_of_float (ceil (0.99 *. float_of_int len)) - 1))
        in
        let aging_bound =
          let cfg = Sched.default_config () in
          cfg.Sched.aging_rounds + Lane.count
        in
        (* One full pass over the identical seeded schedule.  The
           surviving set is fixed caller-side before each round's query
           burst (merges only restructure runs, never change the
           answer), so every pooled query racing the storm must still
           equal the from-scratch oracle. *)
        let run_pass ~unified =
          let label = if unified then "unified" else "lanes" in
          let lanes_cfg =
            if unified then Sched.unified_config () else Sched.default_config ()
          in
          (* batch_max 1: every dequeue is a scheduling decision, so
             the weighted-fair policy (or the FIFO baseline) is what's
             actually measured — a bigger batch would let one worker
             swallow the whole storm in a single grant. *)
          let pool = Svc.Executor.create ~workers ~batch_max:1 ~lanes:lanes_cfg () in
          let m = Svc.Executor.metrics pool in
          let rng = Rng.create seed in
          let base = Array.init n (fun i -> mk_elem rng (i + 1)) in
          let t =
            Ing.create ~params:(IInst.params ()) ~buffer_cap ~fanout ~pool base
          in
          let live = Hashtbl.create (2 * n) in
          Array.iter (fun (e : I.t) -> Hashtbl.replace live e.I.id e) base;
          let next_id = ref (n + 1) in
          let one_update () =
            let insert () =
              let e = mk_elem rng !next_id in
              incr next_id;
              Hashtbl.replace live e.I.id e;
              Ing.insert t e
            in
            (* 70% inserts, the rest delete a live element (falling
               back to an insert when the bounded probe misses). *)
            if Rng.uniform rng <= 0.7 then insert ()
            else begin
              let victim = ref None in
              let tries = ref 0 in
              while !victim = None && !tries < 64 do
                incr tries;
                let id = 1 + Rng.int rng (!next_id - 1) in
                match Hashtbl.find_opt live id with
                | Some e -> victim := Some e
                | None -> ()
              done;
              match !victim with
              | Some e ->
                  Hashtbl.remove live e.I.id;
                  Ing.delete t e
              | None -> insert ()
            end
          in
          let oracle_memo = Array.make distinct None in
          let oracle qi =
            match oracle_memo.(qi) with
            | Some ans -> ans
            | None ->
                let q = qpool.(qi) in
                let ans =
                  ids
                    (Topk_util.Select.top_k ~cmp:I.compare_weight k
                       (Hashtbl.fold
                          (fun _ e acc ->
                            if I.contains e q then e :: acc else acc)
                          live []))
                in
                oracle_memo.(qi) <- Some ans;
                ans
          in
          let spin () =
            let stop = Clock.now () +. (storm_ms /. 1e3) in
            while Clock.now () < stop do
              ignore (Sys.opaque_identity ())
            done
          in
          (* Warm the pool (domain spawn is ms-scale) so startup
             doesn't land on the first measured queries. *)
          ignore
            (Svc.Future.await
               (Svc.Executor.submit_task pool ~lane:Lane.Interactive
                  ~name:"warmup" (fun () -> ()))
              : unit Svc.Response.t);
          let latencies = ref [] in
          let mismatched = ref 0 and checked = ref 0 in
          let maint_done = ref 0 in
          let maint_futs = ref [] in
          for _round = 1 to rounds do
            (* Fix this round's content, feeding the merge storm... *)
            for _ = 1 to upr do
              one_update ()
            done;
            Array.fill oracle_memo 0 distinct None;
            (* ...pile synthetic batch work in front of the queries... *)
            for _ = 1 to storm do
              ignore
                (Svc.Executor.submit_task pool ~name:"storm" spin
                  : unit Svc.Response.t Svc.Future.t)
            done;
            (* ...keep the maintenance heartbeat alive... *)
            maint_futs :=
              Svc.Executor.submit_task pool ~lane:Lane.Maintenance
                ~name:"scrub" (fun () -> ())
              :: !maint_futs;
            (* ...and race the interactive stream against all of it.
               Each query is awaited before the next is issued, so its
               latency measures queueing behind batch work plus its own
               execution — the thing lane isolation protects — rather
               than the round's makespan, which is work-conserving and
               identical under any scheduling policy. *)
            for _ = 1 to qpr do
              let qi = zipf rng in
              let slot = ref [] in
              let fut =
                Svc.Executor.submit_task pool ~lane:Lane.Interactive
                  ~name:"query" (fun () -> slot := Ing.query t qpool.(qi) ~k)
              in
              let r = Svc.Future.await fut in
              incr checked;
              (match r.Svc.Response.status with
              | Svc.Response.Complete ->
                  if ids !slot <> oracle qi then begin
                    incr mismatched;
                    if !mismatched <= 3 then
                      Printf.printf
                        "  MISMATCH (%s pass, q=%g): got %d ids, oracle %d\n"
                        label qpool.(qi)
                        (List.length !slot)
                        (List.length (oracle qi))
                  end
              | _ -> incr mismatched);
              latencies := r.Svc.Response.latency :: !latencies
            done
          done;
          Ing.freeze t;
          Svc.Executor.drain pool;
          List.iter
            (fun f ->
              match (Svc.Future.await f).Svc.Response.status with
              | Svc.Response.Complete -> incr maint_done
              | _ -> ())
            !maint_futs;
          let pool_ios = (Svc.Executor.aggregate_stats pool).Stats.ios in
          Svc.Executor.shutdown pool;
          let get c = Svc.Metrics.Counter.get c in
          let lane_ios =
            Array.map get m.Svc.Metrics.lane_ios |> Array.to_list
          in
          let maint_wait =
            Svc.Metrics.Histogram.max_value
              m.Svc.Metrics.lane_wait_rounds.(Lane.index Lane.Maintenance)
          in
          let merges = get m.Svc.Metrics.merges in
          let q99 = p99 !latencies in
          Printf.printf
            "pass %-7s: %d/%d exact, interactive p99 %.2fms, merges=%d, \
             maintenance %d/%d done (max wait %d rounds), lane I/O %s = \
             pool %d\n%!"
            label
            (!checked - !mismatched)
            !checked (q99 *. 1e3) merges !maint_done rounds maint_wait
            (String.concat "+" (List.map string_of_int lane_ios))
            pool_ios;
          (* Hard gates that apply to each pass on its own. *)
          if !mismatched > 0 then
            die "%s pass: %d answers disagree with the from-scratch oracle"
              label !mismatched;
          if !maint_done <> rounds then
            die "%s pass: %d of %d maintenance tasks starved (never ran)"
              label (rounds - !maint_done) rounds;
          if merges = 0 then
            die "%s pass: the update stream never merged a level" label;
          if List.fold_left ( + ) 0 lane_ios <> pool_ios then
            die
              "%s pass: per-lane charged I/O (%s) does not sum to the \
               pool's aggregate (%d)"
              label
              (String.concat "+" (List.map string_of_int lane_ios))
              pool_ios;
          if (not unified) && maint_wait > aging_bound then
            die
              "lanes pass: a maintenance task waited %d dispatch rounds \
               (aging bound %d)"
              maint_wait aging_bound;
          q99
        in
        match only with
        | `Lanes ->
            ignore (run_pass ~unified:false : float);
            Printf.printf
              "sched-bench: OK (%d/%d exact, %d/%d maintenance on time, \
               lane I/O exact)\n"
              (rounds * qpr) (rounds * qpr) rounds rounds
        | `Unified ->
            ignore (run_pass ~unified:true : float);
            Printf.printf
              "sched-bench: OK (%d/%d exact, %d/%d maintenance on time, \
               lane I/O exact)\n"
              (rounds * qpr) (rounds * qpr) rounds rounds
        | `Both ->
            let p99_unified = run_pass ~unified:true in
            let p99_lanes = run_pass ~unified:false in
            Printf.printf
              "isolation: interactive p99 %.2fms (unified) -> %.2fms \
               (lanes), %+.1f%%\n"
              (p99_unified *. 1e3) (p99_lanes *. 1e3)
              (100.0 *. ((p99_lanes /. Float.max 1e-9 p99_unified) -. 1.0));
            if not (p99_lanes < p99_unified) then
              die
                "lane isolation did not improve interactive p99 under the \
                 merge storm (%.2fms lanes vs %.2fms unified)"
                (p99_lanes *. 1e3) (p99_unified *. 1e3);
            Printf.printf
              "sched-bench: OK (%d/%d exact per pass, %d/%d maintenance on \
               time, lane I/O exact, interactive p99 improved)\n"
              (rounds * qpr) (rounds * qpr) rounds rounds)
  in
  Cmd.v
    (Cmd.info "sched-bench"
       ~doc:
         "Race a Zipf-skewed interactive query stream against a \
          live-ingesting index under a batch-lane merge storm and a \
          maintenance heartbeat, twice on the identical seeded schedule: \
          once on the single-queue (unified) baseline, once with QoS lane \
          isolation.  Hard-fails unless every answer matches the \
          from-scratch oracle on both passes, interactive p99 improves \
          with lanes, no maintenance task starves (bounded max wait in \
          dispatch rounds), and per-lane charged I/O sums exactly to the \
          pool's EM aggregate.")
    Term.(
      const run $ n_arg $ k_arg $ seed_arg $ rounds_arg $ qpr_arg $ upr_arg
      $ storm_arg $ storm_ms_arg $ distinct_arg $ theta_arg $ workers_arg
      $ buffer_cap_arg $ fanout_arg $ only_arg $ block_arg)

(* --- sample-check --- *)

let sample_check_cmd =
  let delta_arg =
    Arg.(
      value & opt float 0.1
      & info [ "delta" ] ~docv:"DELTA" ~doc:"Lemma 1 failure budget.")
  in
  let trials_arg =
    Arg.(value & opt int 500 & info [ "trials" ] ~docv:"T" ~doc:"Trials.")
  in
  let run n k seed delta trials =
    validate_common ~n ~k;
    require_pos "trials" trials;
    require_pos_float "delta" delta;
    if k > n then die "k must be <= n (got k=%d, n=%d)" k n;
    let module RS = Topk_core.Rank_sampling in
    let rng = Topk_util.Rng.create seed in
    let ground = Array.init n (fun i -> i) in
    Topk_util.Rng.shuffle rng ground;
    let p = RS.min_p ~k ~delta in
    let fail = ref 0 in
    for _ = 1 to trials do
      match RS.lemma1_trial rng ~cmp:Int.compare ~k ~p ground with
      | RS.Ok_rank -> ()
      | _ -> incr fail
    done;
    Printf.printf
      "Lemma 1: n=%d k=%d delta=%g p=%g -> %d/%d failures (rate %.4f)\n" n k
      delta p !fail trials
      (float_of_int !fail /. float_of_int trials)
  in
  Cmd.v
    (Cmd.info "sample-check" ~doc:"Empirically check Lemma 1's rank bound.")
    Term.(const run $ n_arg $ k_arg $ seed_arg $ delta_arg $ trials_arg)

let () =
  let info =
    Cmd.info "topk" ~version:"1.0.0"
      ~doc:
        "Top-k indexing via general reductions (Rahul & Tao, PODS'16): \
         build structures over synthetic workloads, answer queries, \
         report EM-model costs."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            interval_cmd;
            enclosure_cmd;
            dominance_cmd;
            halfplane_cmd;
            circular_cmd;
            sample_check_cmd;
            serve_bench_cmd;
            chaos_bench_cmd;
            shard_bench_cmd;
            trace_cmd;
            ingest_bench_cmd;
            crash_bench_cmd;
            repl_bench_cmd;
            cache_bench_cmd;
            sched_bench_cmd;
          ]))
