(* Tests for the external-memory cost model. *)

module Config = Topk_em.Config
module Stats = Topk_em.Stats
module Fault = Topk_em.Fault

let test_config_validation () =
  Alcotest.check_raises "b too small"
    (Invalid_argument "Config.em: block size must be >= 2")
    (fun () -> ignore (Config.em ~b:1 ()))

let test_blocks_of_words () =
  let c = Config.em ~b:64 () in
  Alcotest.(check int) "zero" 0 (Config.blocks_of_words c 0);
  Alcotest.(check int) "negative" 0 (Config.blocks_of_words c (-5));
  Alcotest.(check int) "one" 1 (Config.blocks_of_words c 1);
  Alcotest.(check int) "full block" 1 (Config.blocks_of_words c 64);
  Alcotest.(check int) "block + 1" 2 (Config.blocks_of_words c 65);
  let r = Config.ram in
  Alcotest.(check int) "ram: word = block" 7 (Config.blocks_of_words r 7)

let test_with_model_restores () =
  let before = Config.current () in
  let inside = ref Config.ram in
  Config.with_model Config.ram (fun () -> inside := Config.current ());
  Alcotest.(check bool) "inside is ram" true (!inside = Config.ram);
  Alcotest.(check bool) "restored" true (Config.current () = before);
  (try
     Config.with_model Config.ram (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "restored after exception" true
    (Config.current () = before)

let test_charge_ios () =
  Stats.reset ();
  Stats.charge_ios 3;
  Stats.charge_ios 0;
  Stats.charge_ios 2;
  Alcotest.(check int) "sum" 5 (Stats.ios ());
  Alcotest.check_raises "negative" (Invalid_argument "Stats.charge_ios: negative")
    (fun () -> Stats.charge_ios (-1))

let test_charge_scan_carry () =
  Config.with_model (Config.em ~b:64 ()) (fun () ->
      Stats.reset ();
      (* 64 one-element scans amount to exactly one block I/O. *)
      for _ = 1 to 64 do
        Stats.charge_scan 1
      done;
      Alcotest.(check int) "64 x 1 elem = 1 io" 1 (Stats.ios ());
      Stats.reset ();
      Stats.charge_scan 63;
      Alcotest.(check int) "63 elems: no io yet" 0 (Stats.ios ());
      Stats.charge_scan 1;
      Alcotest.(check int) "carry completes the block" 1 (Stats.ios ());
      Stats.reset ();
      Stats.charge_scan 640;
      Alcotest.(check int) "bulk scan" 10 (Stats.ios ());
      Alcotest.(check int) "raw elements recorded" 640
        (Stats.snapshot ()).Stats.scanned)

let test_measure_isolates () =
  Stats.reset ();
  Stats.charge_ios 7;
  let (), inner = Stats.measure (fun () -> Stats.charge_ios 5) in
  Alcotest.(check int) "inner sees its own" 5 inner.Stats.ios;
  Alcotest.(check int) "outer untouched" 7 (Stats.ios ());
  (try
     ignore
       (Stats.measure (fun () ->
            Stats.charge_ios 100;
            failwith "boom"))
   with Failure _ -> ());
  Alcotest.(check int) "outer survives exception" 7 (Stats.ios ())

(* [round_carry] closes each domain's partial scan block on that
   domain: two domains each scanning below a block boundary are charged
   one I/O each, not a shared rounding. *)
let test_round_carry_multi_domain () =
  Config.with_model (Config.em ~b:64 ()) (fun () ->
      Stats.reset ();
      let before = Stats.aggregate () in
      let work () =
        Stats.charge_scan 32;  (* below a block: carry only, no io *)
        Stats.round_carry ()   (* close the partial block: one io *)
      in
      let d1 = Domain.spawn work and d2 = Domain.spawn work in
      Domain.join d1;
      Domain.join d2;
      let d = Stats.diff (Stats.aggregate ()) before in
      Alcotest.(check int) "one io per domain" 2 d.Stats.ios;
      Alcotest.(check int) "raw elements recorded" 64 d.Stats.scanned;
      (* A round_carry with no pending carry charges nothing. *)
      Stats.round_carry ();
      let d' = Stats.diff (Stats.aggregate ()) before in
      Alcotest.(check int) "no-op on a closed block" 2 d'.Stats.ios)

(* --- fault injection --- *)

let count_faults n =
  let faults = ref 0 in
  for _ = 1 to n do
    match Stats.charge_ios 1 with
    | () -> ()
    | exception Fault.Em_fault _ -> incr faults
  done;
  !faults

let test_fault_determinism () =
  Fault.clear ();
  Stats.reset ();
  let p = Fault.plan ~seed:9 ~io_fault_rate:0.2 () in
  Fault.install p;
  let a = count_faults 500 in
  Fault.clear ();
  Alcotest.(check int)
    "ios charged even when the fetch faults" 500 (Stats.ios ());
  Alcotest.(check bool) "faults actually injected" true (a > 0);
  Alcotest.(check bool) "but not on every io" true (a < 500);
  Alcotest.(check int) "charged to the domain's counter" a (Stats.faults ());
  (* Reinstalling the same plan reseeds the stream: the exact same
     fault sequence replays. *)
  Fault.install p;
  let b = count_faults 500 in
  Fault.clear ();
  Alcotest.(check int) "same plan, same fault sequence" a b

let test_fault_rate_one_and_cap () =
  Fault.clear ();
  Stats.reset ();
  Fault.with_plan
    (Fault.plan ~seed:1 ~io_fault_rate:1.0 ())
    (fun () ->
      Alcotest.(check int) "rate 1: every io faults" 100 (count_faults 100));
  Alcotest.(check bool)
    "with_plan restored the previous (absent) plan" true
    (Fault.active () = None);
  Fault.install (Fault.plan ~seed:1 ~io_fault_rate:1.0 ~max_faults:5 ());
  Alcotest.(check int) "max_faults caps injection" 5 (count_faults 100);
  Fault.clear ();
  Alcotest.(check int) "cleared: no injection" 0 (count_faults 50)

let test_fault_latency_spikes_charged () =
  Fault.clear ();
  Stats.reset ();
  Fault.with_plan
    (Fault.plan ~seed:3 ~io_fault_rate:0. ~latency_rate:1.0 ~latency_s:0. ())
    (fun () -> Stats.charge_ios 10);
  Alcotest.(check int) "every io spiked" 10 (Stats.spikes ());
  Alcotest.(check int) "no fault injected" 0 (Stats.faults ())

let test_fault_plan_validation () =
  Alcotest.check_raises "rate out of range"
    (Invalid_argument "Fault.plan: io_fault_rate must be in [0,1] (got 1.5)")
    (fun () -> ignore (Fault.plan ~io_fault_rate:1.5 ~seed:0 ()));
  Alcotest.check_raises "negative cap"
    (Invalid_argument "Fault.plan: max_faults must be >= 0 (got -1)")
    (fun () -> ignore (Fault.plan ~max_faults:(-1) ~seed:0 ()))

let () =
  Alcotest.run "topk_em"
    [
      ( "config",
        [
          Alcotest.test_case "validation" `Quick test_config_validation;
          Alcotest.test_case "blocks_of_words" `Quick test_blocks_of_words;
          Alcotest.test_case "with_model restores" `Quick
            test_with_model_restores;
        ] );
      ( "stats",
        [
          Alcotest.test_case "charge_ios" `Quick test_charge_ios;
          Alcotest.test_case "scan carry" `Quick test_charge_scan_carry;
          Alcotest.test_case "measure isolates" `Quick test_measure_isolates;
          Alcotest.test_case "round_carry across domains" `Quick
            test_round_carry_multi_domain;
        ] );
      ( "fault",
        [
          Alcotest.test_case "deterministic injection" `Quick
            test_fault_determinism;
          Alcotest.test_case "rate one and cap" `Quick
            test_fault_rate_one_and_cap;
          Alcotest.test_case "latency spikes charged" `Quick
            test_fault_latency_spikes_charged;
          Alcotest.test_case "plan validation" `Quick
            test_fault_plan_validation;
        ] );
    ]
