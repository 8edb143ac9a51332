(* Tests of the durability layer (lib/persist): WAL framing edge cases
   (empty log, torn tail, checksum corruption mid-log, checkpoint-begin
   without end, duplicate-lsn dedup, double-recovery idempotence), the
   checkpoint triple, and the durable snapshot under simulated power
   losses — a mini exhaustive sweep (a blackout at every schedule point
   must recover to a durably-linearizable state), plain crash–restart
   intent resumption, checkpointed recovery, and the committed E18
   witness schedule, which must drive the deliberately unsound late-log
   mode to a committed-then-lost violation while leaving the sound
   write-ahead mode clean. *)

open Psnap
module Wal = Persist.Wal
module Recovery = Persist.Recovery
module St = Persist.Storage.Sim
module WIO = Persist.Wal.Make (Persist.Storage.Sim)
module R = Persist.Recovery.Make (Persist.Storage.Sim)
module C = Persist.Checkpoint.Make (Persist.Storage.Sim)
module Scenario = Psnap_harness.Scenario
module Campaign = Psnap_harness.Campaign
module M = Psnap_sched.Mem_sim

let () = M.set_strict true

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let pay (v : int) = Marshal.to_string v []

let upd ~lsn ~index v = Wal.Update { lsn; pid = 0; index; payload = pay v }

let ints_of (st : int Recovery.state) = st.Recovery.values

(* ---- WAL framing ---- *)

let test_roundtrip () =
  let records =
    [
      upd ~lsn:1 ~index:0 42;
      Wal.Checkpoint_begin { gen = 1; next_lsn = 2 };
      Wal.Scan_seal { gen = 1; payload = Marshal.to_string [| 42; -2 |] [] };
      Wal.Checkpoint_end { gen = 1 };
      upd ~lsn:2 ~index:1 7;
    ]
  in
  let log = String.concat "" (List.map Wal.encode records) in
  let d = Wal.decode_all log in
  check_bool "clean" true (d.Wal.damage = Wal.Clean);
  check_int "all records decode" (List.length records)
    (List.length d.Wal.records);
  check_int "good_bytes = full log" (String.length log) d.Wal.good_bytes

let test_empty_log () =
  let d = Wal.decode_all "" in
  check_bool "clean" true (d.Wal.damage = Wal.Clean);
  check_int "no records" 0 (List.length d.Wal.records);
  check_int "no bytes" 0 d.Wal.good_bytes;
  St.reset ();
  let dev = St.create ~name:"t" in
  let st, damage = R.load dev ~init:[| -1; -2 |] in
  check_bool "fresh device is clean" true (damage = Wal.Clean);
  check_bool "recovers to init" true (ints_of st = [| -1; -2 |]);
  check_int "first lsn" 1 st.Recovery.next_lsn;
  check_int "nothing replayed" 0 st.Recovery.replayed;
  check_int "no checkpoint" 0 st.Recovery.checkpoint_gen

let test_torn_tail () =
  St.reset ();
  let dev = St.create ~name:"t" in
  WIO.append dev (upd ~lsn:1 ~index:0 10);
  WIO.append dev (upd ~lsn:2 ~index:1 20);
  St.sync dev;
  (* a power loss mid-append leaves a prefix of the next frame *)
  let torn = Wal.encode (upd ~lsn:3 ~index:0 30) in
  St.append dev (String.sub torn 0 (String.length torn - 5));
  let d = WIO.read_all ~repair:true dev in
  check_bool "torn" true (d.Wal.damage = Wal.Torn);
  check_int "valid prefix survives" 2 (List.length d.Wal.records);
  check_int "repair truncated the device" d.Wal.good_bytes (St.size dev);
  let d2 = WIO.read_all dev in
  check_bool "clean after repair" true (d2.Wal.damage = Wal.Clean);
  check_int "same records" 2 (List.length d2.Wal.records)

let test_corrupt_mid_log () =
  let r1 = Wal.encode (upd ~lsn:1 ~index:0 10) in
  let r2 = Wal.encode (upd ~lsn:2 ~index:1 20) in
  let r3 = Wal.encode (upd ~lsn:3 ~index:0 30) in
  let log = Bytes.of_string (r1 ^ r2 ^ r3) in
  (* flip a byte inside r2's body (past its header) *)
  let off = String.length r1 + Wal.header_len + 2 in
  Bytes.set log off (Char.chr (Char.code (Bytes.get log off) lxor 0xFF));
  let d = Wal.decode_all (Bytes.to_string log) in
  check_bool "corrupt, not torn" true (d.Wal.damage = Wal.Corrupt);
  check_int "decoding stops before the damaged frame" 1
    (List.length d.Wal.records);
  check_int "good_bytes = r1" (String.length r1) d.Wal.good_bytes

let test_begin_without_end () =
  let records =
    [
      upd ~lsn:1 ~index:0 10;
      Wal.Checkpoint_begin { gen = 1; next_lsn = 2 };
      Wal.Scan_seal { gen = 1; payload = Marshal.to_string [| 10; -2 |] [] };
      (* no Checkpoint_end: the triple is invisible to recovery *)
      upd ~lsn:2 ~index:1 20;
    ]
  in
  let st = Recovery.replay ~init:[| -1; -2 |] records in
  check_bool "falls back to init + full replay" true
    (ints_of st = [| 10; 20 |]);
  check_int "no checkpoint trusted" 0 st.Recovery.checkpoint_gen;
  check_int "both updates replayed" 2 st.Recovery.replayed;
  check_int "lsn horizon past everything" 3 st.Recovery.next_lsn

let test_duplicate_lsn_dedup () =
  (* owner recovery may conservatively re-append an lsn that survived *)
  let records =
    [ upd ~lsn:1 ~index:0 10; upd ~lsn:1 ~index:0 10; upd ~lsn:2 ~index:1 20 ]
  in
  let st = Recovery.replay ~init:[| -1; -2 |] records in
  check_bool "values" true (ints_of st = [| 10; 20 |]);
  check_int "duplicate applied once" 2 st.Recovery.replayed;
  check_int "next lsn" 3 st.Recovery.next_lsn

let test_checkpoint_roundtrip () =
  St.reset ();
  let dev = St.create ~name:"t" in
  WIO.append dev (upd ~lsn:1 ~index:0 10);
  St.sync dev;
  C.write dev ~gen:1 ~next_lsn:2 ~payload:(Marshal.to_string [| 10; -2 |] []);
  WIO.append dev (upd ~lsn:2 ~index:1 20);
  St.sync dev;
  let st, damage = R.load dev ~init:[| -1; -2 |] in
  check_bool "clean" true (damage = Wal.Clean);
  check_bool "checkpoint + suffix" true (ints_of st = [| 10; 20 |]);
  check_int "recovered generation" 1 st.Recovery.checkpoint_gen;
  check_int "only the suffix replayed" 1 st.Recovery.replayed;
  check_int "next lsn" 3 st.Recovery.next_lsn

let test_double_recovery_idempotent () =
  St.reset ();
  let dev = St.create ~name:"t" in
  WIO.append dev (upd ~lsn:1 ~index:0 10);
  WIO.append dev (upd ~lsn:2 ~index:1 20);
  St.sync dev;
  let torn = Wal.encode (upd ~lsn:3 ~index:0 30) in
  St.append dev (String.sub torn 0 (String.length torn - 3));
  let st1, d1 = R.load dev ~init:[| -1; -2 |] in
  let st2, d2 = R.load dev ~init:[| -1; -2 |] in
  check_bool "first pass repairs" true (d1 = Wal.Torn);
  check_bool "second pass reads a clean log" true (d2 = Wal.Clean);
  check_bool "same values" true (ints_of st1 = ints_of st2);
  check_int "same next lsn" st1.Recovery.next_lsn st2.Recovery.next_lsn;
  check_int "same replay count" st1.Recovery.replayed st2.Recovery.replayed

let test_has_lsn () =
  St.reset ();
  let dev = St.create ~name:"t" in
  WIO.append dev (upd ~lsn:1 ~index:0 10);
  WIO.append dev (upd ~lsn:3 ~index:1 20);
  check_bool "present" true (WIO.has_lsn dev 1);
  check_bool "present" true (WIO.has_lsn dev 3);
  check_bool "absent" false (WIO.has_lsn dev 2)

(* ---- the durable snapshot under the simulator ----

   The workload is bin/simulate.exe's durable scenario at the committed
   E18 witness's parameters: the witness was shrunk against that program,
   and replay is only meaningful against the same program. *)

let workload =
  {
    Scenario.default with
    impl = "durable";
    m = 4;
    r = 4;
    updaters = 1;
    updates = 3;
    scanners = 2;
    scans = 6;
  }

let run_workload ?(config = workload) ~sched () =
  let o = Campaign.run_once (Psnap_harness.Scenarios.durable config) ~sched in
  (o.result, o.violations)

let test_mini_power_loss_sweep () =
  Psnap_sched.Metrics.reset_durable ();
  let base seed = Scheduler.random ~seed () in
  (* one clean baseline to learn the schedule length, then a blackout at
     every schedule point — the simulate campaign's sweep in miniature *)
  let res0, viols0 = run_workload ~sched:(base 7) () in
  check_bool "baseline linearizable" true (viols0 = []);
  for c = 1 to res0.Sim.clock - 1 do
    let sched = Scheduler.power_loss_at ~at_clock:c (base 7) in
    let _, viols = run_workload ~sched () in
    if viols <> [] then
      Alcotest.failf "power loss at clock %d: %d violations" c
        (List.length viols)
  done;
  let dm = Psnap_sched.Metrics.durable () in
  check_bool "blackouts fired" true (dm.Psnap_sched.Metrics.power_losses > 0);
  check_bool "recoveries ran" true (dm.Psnap_sched.Metrics.recoveries > 0)

let test_storm_with_checkpoints () =
  Psnap_sched.Metrics.reset_durable ();
  let config = { workload with checkpoint_every = 2 } in
  for seed = 0 to 19 do
    let sched =
      Scheduler.power_storm ~seed ~rate:0.02 (Scheduler.random ~seed ())
    in
    let _, viols = run_workload ~config ~sched () in
    if viols <> [] then
      Alcotest.failf "seed %d: %d violations" seed (List.length viols)
  done;
  let dm = Psnap_sched.Metrics.durable () in
  check_bool "checkpoints sealed" true
    (dm.Psnap_sched.Metrics.checkpoints > 0);
  check_bool "recoveries ran" true (dm.Psnap_sched.Metrics.recoveries > 0)

let test_plain_crash_resumes_intent () =
  (* a crash–restart without any power loss: the object survives in
     memory, so recovery must resume the published intent, never rebuild *)
  Psnap_sched.Metrics.reset_durable ();
  for seed = 0 to 19 do
    let sched = Scheduler.crash_storm ~seed (Scheduler.random ~seed ()) in
    let _, viols = run_workload ~sched () in
    if viols <> [] then
      Alcotest.failf "seed %d: %d violations" seed (List.length viols)
  done;
  let dm = Psnap_sched.Metrics.durable () in
  check_int "no blackout, no rebuild" 0 dm.Psnap_sched.Metrics.recoveries

(* ---- E18: the committed ddmin-shrunk witness ---- *)

(* `dune runtest` runs from the test directory inside _build (where the
   dune deps clause stages the schedule one level up); `dune exec` runs
   from the workspace root. *)
let e18_witness =
  if Sys.file_exists "schedules/e18-durable-latelog.sched" then
    "schedules/e18-durable-latelog.sched"
  else "../schedules/e18-durable-latelog.sched"

let replay_witness ~config =
  let decisions = Shrink.load e18_witness in
  check_bool "witness committed and shrunk" true
    (decisions <> [] && List.length decisions <= 80);
  snd (run_workload ~config ~sched:(Campaign.replay decisions) ())

let test_e18_witness_kills_late_log () =
  let viols =
    replay_witness ~config:{ workload with wal_mode = "late-log" }
  in
  check_bool "late-log mode loses an observed value" true (viols <> [])

let test_e18_witness_clean_on_write_ahead () =
  let viols = replay_witness ~config:workload in
  check_bool "write-ahead mode survives the same blackout" true (viols = [])

let () =
  Alcotest.run "persist"
    [
      ( "wal",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "empty log" `Quick test_empty_log;
          Alcotest.test_case "torn tail" `Quick test_torn_tail;
          Alcotest.test_case "corrupt mid-log" `Quick test_corrupt_mid_log;
          Alcotest.test_case "has_lsn" `Quick test_has_lsn;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "begin without end" `Quick
            test_begin_without_end;
          Alcotest.test_case "duplicate lsn dedup" `Quick
            test_duplicate_lsn_dedup;
          Alcotest.test_case "checkpoint roundtrip" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "double recovery idempotent" `Quick
            test_double_recovery_idempotent;
        ] );
      ( "power-loss",
        [
          Alcotest.test_case "mini sweep: blackout at every point" `Quick
            test_mini_power_loss_sweep;
          Alcotest.test_case "storm with checkpoints (20 seeds)" `Quick
            test_storm_with_checkpoints;
          Alcotest.test_case "plain crash resumes intent (20 seeds)" `Quick
            test_plain_crash_resumes_intent;
          Alcotest.test_case "e18 witness kills late-log" `Quick
            test_e18_witness_kills_late_log;
          Alcotest.test_case "e18 witness clean on write-ahead" `Quick
            test_e18_witness_clean_on_write_ahead;
        ] );
    ]
