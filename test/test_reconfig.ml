(* Tests of online reconfiguration (lib/net Net_reconfig): epoch-fenced
   membership changes under churn stay linearizable, permanent replica
   deaths drive the suspicion -> replacement -> activation pipeline, the
   deliberately unsound [Naive] mode really does skip the protocol (so
   its split-brain witness means something), and the committed E21
   witness schedule convicts naive mode of a lost acked write while the
   fenced mode survives the very same schedule. *)

open Psnap
module A = Psnap.Net.Abd
module R = Psnap.Net.Reconfig
module Scenario = Psnap_harness.Scenario
module Campaign = Psnap_harness.Campaign
module Scenarios = Psnap_harness.Scenarios

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* bin/simulate.exe's reconfiguration scenario: [updaters] writers each
   bumping their own register with a final read-back (lost-write oracle),
   [scanners] readers checking per-register monotonicity, the replica
   pool, and the membership manager as the last pid; every register's
   history is also checked for linearizability. *)
let run_workload ~mode ~updaters ~updates ~scanners ~scans ~replicas ~spares
    ~sched () =
  Metrics.reset_net ();
  Metrics.reset_serving ();
  Metrics.reset_reconfig ();
  let scenario =
    Scenarios.reconfig
      {
        Scenario.default with
        reconfig = (if mode = R.Naive then "naive" else "fenced");
        updaters;
        updates;
        scanners;
        scans;
        replicas;
        spares;
        check = true;
      }
  in
  let o = Campaign.run_once scenario ~sched in
  ( o.violations,
    (Metrics.reconfig ()).Metrics.reconfigs,
    Campaign.counter scenario "max_epoch" )

let member_pids ~clients ~replicas = List.init replicas (fun i -> clients + i)

(* ---- fenced churn stays linearizable ---- *)

let test_fenced_churn_linearizable () =
  (* Repeated member rotations under a random schedule: every seed must
     stay violation-free, and the campaign as a whole must have really
     reconfigured (otherwise the test is vacuous). *)
  let completed = ref 0 in
  for seed = 0 to 4 do
    let sched =
      Scheduler.config_churn ~seed ~rate:0.004 ~max_reconfigs:2
        (Scheduler.random ~seed ())
    in
    let viols, reconfigs, max_epoch =
      run_workload ~mode:R.Fenced ~updaters:2 ~updates:8 ~scanners:2 ~scans:8
        ~replicas:3 ~spares:2 ~sched ()
    in
    check_bool "fenced churn: no violations" true (viols = []);
    completed := !completed + reconfigs;
    if reconfigs > 0 then
      check_bool "clients adopted a post-churn epoch" true (max_epoch >= 0)
  done;
  check_bool "churn campaign completed at least one rotation" true
    (!completed >= 1)

(* ---- permanent death drives suspicion and replacement ---- *)

let test_replica_death_replacement () =
  (* One member dies permanently: the manager's probes must suspect it,
     swap in a spare, and the service must keep answering (the fenced
     activation shows up as a completed reconfiguration). *)
  let clients = 4 and replicas = 3 in
  let suspicions = ref 0 and replacements = ref 0 and completed = ref 0 in
  for seed = 0 to 4 do
    let sched =
      Scheduler.replica_death ~seed
        ~victims:(member_pids ~clients ~replicas)
        ~rate:0.01 ~max_deaths:1
        (Scheduler.random ~seed ())
    in
    let viols, reconfigs, _ =
      run_workload ~mode:R.Fenced ~updaters:2 ~updates:8 ~scanners:2 ~scans:8
        ~replicas ~spares:2 ~sched ()
    in
    check_bool "death + replacement: no violations" true (viols = []);
    let rm = Metrics.reconfig () in
    suspicions := !suspicions + rm.Metrics.suspicions;
    replacements := !replacements + rm.Metrics.replacements;
    completed := !completed + reconfigs
  done;
  check_bool "probes suspected the dead member" true (!suspicions > 0);
  check_bool "a spare was proposed as replacement" true (!replacements > 0);
  check_bool "a replacement configuration activated" true (!completed > 0)

(* ---- naive mode really skips the protocol ---- *)

let test_naive_skips_protocol () =
  (* The unsound mode must swap memberships without sealing and without
     fencing — zero seals and zero stale rejects is what makes its
     split-brain witness an indictment of the missing protocol rather
     than of some partially-applied one. *)
  let swaps = ref 0 in
  for seed = 0 to 4 do
    let sched =
      Scheduler.config_churn ~seed ~rate:0.004 ~max_reconfigs:2
        (Scheduler.random ~seed ())
    in
    let _viols, _reconfigs, _ =
      run_workload ~mode:R.Naive ~updaters:2 ~updates:8 ~scanners:2 ~scans:8
        ~replicas:3 ~spares:2 ~sched ()
    in
    let rm = Metrics.reconfig () in
    swaps := !swaps + rm.Metrics.naive_swaps;
    check_int "naive mode never seals" 0 rm.Metrics.seals;
    check_int "naive replicas never fence" 0 rm.Metrics.stale_rejects
  done;
  check_bool "churn really swapped memberships" true (!swaps >= 1)

(* ---- the committed E21 witness ---- *)

let e21_witness =
  if Sys.file_exists "schedules/e21-reconfig-naive.sched" then
    "schedules/e21-reconfig-naive.sched"
  else "../schedules/e21-reconfig-naive.sched"

(* Replay at the campaign's exact parameters: 1 updater x 20 updates,
   2 scanners x 3 scans, 3 replicas + 2 spares (the schedule's crash,
   netcut and reconfig decisions carry the split-brain nemesis; the
   fallback covers decision exhaustion). *)
let replay_witness ~mode =
  let decisions = Shrink.load e21_witness in
  check_bool "witness committed and shrunk" true
    (decisions <> [] && List.length decisions <= 600);
  let viols, _, _ =
    run_workload ~mode ~updaters:1 ~updates:20 ~scanners:2 ~scans:3
      ~replicas:3 ~spares:2 ~sched:(Campaign.replay decisions) ()
  in
  viols

let test_e21_witness_kills_naive_mode () =
  let viols = replay_witness ~mode:R.Naive in
  check_bool "naive reconfiguration loses an acked write" true (viols <> [])

let test_e21_witness_clean_on_fenced () =
  let viols = replay_witness ~mode:R.Fenced in
  check_bool "epoch fencing survives the same schedule" true (viols = [])

let () =
  Alcotest.run "reconfig"
    [
      ( "protocol",
        [
          Alcotest.test_case "fenced churn linearizable (5 seeds)" `Quick
            test_fenced_churn_linearizable;
          Alcotest.test_case "death -> suspicion -> replacement (5 seeds)"
            `Quick test_replica_death_replacement;
          Alcotest.test_case "naive mode skips seal and fence (5 seeds)"
            `Quick test_naive_skips_protocol;
        ] );
      ( "e21",
        [
          Alcotest.test_case "witness kills naive mode" `Quick
            test_e21_witness_kills_naive_mode;
          Alcotest.test_case "witness clean on fenced" `Quick
            test_e21_witness_clean_on_fenced;
        ] );
    ]
