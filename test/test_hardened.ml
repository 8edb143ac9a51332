(* Hardened registers (docs/MODEL.md §9): self-validation and replication
   detect and out-live the memory faults that break raw cells, and the
   paper's algorithms — functored over the hardened memory — stay
   linearizable under seeded fault storms (the constructive half of E15). *)

open Psnap
module M = Mem.Sim
module H = Mem.Hardened
module HS = Mem.Sim_selfcheck
module HR = Mem.Sim_replicated

let () = M.set_strict true

let () = M.set_fault_tracking true

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let rr () = Scheduler.round_robin ()

let fault kind oid = Scheduler.Mem_fault { kind; oid }

(* One-shot injection at a given clock, scheduling with [inner] otherwise:
   positions a fault between hardened sub-steps without counting them by
   hand. *)
let inject_at ~clock ~kind ~oid inner =
  Scheduler.nemesis
    ("inject@" ^ string_of_int clock)
    (Scheduler.once_at clock (fun _ -> Scheduler.now [ fault kind oid ]))
    inner

let reset () =
  Sim.reset_prerun_oids ();
  M.reset_fault_counts ();
  H.reset_stats ()

let detected () =
  let s = H.stats () in
  s.H.corrupt_detected + s.H.stale_detected + s.H.lost_detected

(* ---- plain semantics (no faults): both hardened memories are still
   correct registers / CAS objects ---- *)

let hardened_semantics (module HM : Mem.S) () =
  reset ();
  let r = HM.make ~name:"h" 10 in
  let c = HM.make ~name:"c" 0 in
  let body () =
    check_int "initial" 10 (HM.read r);
    HM.write r 20;
    check_int "written" 20 (HM.read r);
    let v20 = HM.read r in
    check_bool "cas succeeds on current" true
      (HM.cas r ~expected:v20 ~desired:30);
    check_bool "cas fails on outdated" false
      (HM.cas r ~expected:v20 ~desired:40);
    check_int "cas installed" 30 (HM.read r);
    check_int "faa returns old" 0 (HM.fetch_and_add c 5);
    check_int "faa adds" 5 (HM.fetch_and_add c 3 - 3 + 3);
    check_int "faa total" 8 (HM.read c)
  in
  ignore (Sim.run ~sched:(rr ()) [| body |]);
  check_int "no faults detected" 0 (detected ())

(* ---- Selfcheck: detection and repair on a single cell ---- *)

let test_selfcheck_detects_corrupt () =
  reset ();
  let r = HS.make ~name:"h" 10 in
  (* the single base cell behind [r] is the first prerun allocation *)
  let seen = ref 0 in
  let body () = seen := HS.read r in
  ignore
    (Sim.run
       ~sched:
         (Scheduler.replay_decisions ~lenient:false ~fallback:(rr ())
            [ fault Event.Corrupt (-1) ])
       [| body |]);
  check_int "reads through corruption" 10 !seen;
  let s = H.stats () in
  check_bool "corruption detected" true (s.H.corrupt_detected > 0);
  check_bool "repaired" true (s.H.repairs > 0)

let test_selfcheck_survives_lost_write () =
  reset ();
  let r = HS.make ~name:"h" 0 in
  let seen = ref (-1) in
  let body () =
    HS.write r 5;
    seen := HS.read r
  in
  ignore
    (Sim.run
       ~sched:
         (Scheduler.replay_decisions ~lenient:false ~fallback:(rr ())
            [ fault Event.Lost_write (-1) ])
       [| body |]);
  check_int "write survives the drop" 5 !seen;
  check_bool "loss detected" true ((H.stats ()).H.lost_detected > 0)

let test_selfcheck_survives_stale_read () =
  reset ();
  let r = HS.make ~name:"h" 0 in
  let seen = ref (-1) in
  let body () =
    HS.write r 1;
    HS.write r 2;
    seen := HS.read r
  in
  (* each hardened write costs two base steps (write + verify read); arm
     the stale fault after both writes completed *)
  ignore
    (Sim.run
       ~sched:(inject_at ~clock:4 ~kind:Event.Stale_read ~oid:(-1) (rr ()))
       [| body |]);
  check_int "monotone read" 2 !seen;
  check_bool "staleness detected" true ((H.stats ()).H.stale_detected > 0)

let test_selfcheck_survives_acked_lost_cas () =
  reset ();
  let r = HS.make ~name:"h" 0 in
  let ok = ref false in
  let seen = ref (-1) in
  let body () =
    let v0 = HS.read r in
    ok := HS.cas r ~expected:v0 ~desired:7;
    seen := HS.read r
  in
  (* arm the loss right before the base CAS (hardened cas = read at clock
     1, cas at clock 2): the base CAS acks without installing, the
     verification read catches it, the retry lands the value *)
  ignore
    (Sim.run
       ~sched:(inject_at ~clock:2 ~kind:Event.Lost_write ~oid:(-1) (rr ()))
       [| body |]);
  check_bool "cas eventually true" true !ok;
  check_int "value installed exactly once" 7 !seen;
  check_bool "loss detected" true ((H.stats ()).H.lost_detected > 0)

(* ---- Replicated: majority survives what a single cell cannot ---- *)

let test_replicated_survives_corrupt_of_each_replica () =
  List.iter
    (fun oid ->
      reset ();
      let r = HR.make ~name:"h" 10 in
      let seen = ref 0 in
      let body () = seen := HR.read r in
      ignore
        (Sim.run
           ~sched:
             (Scheduler.replay_decisions ~lenient:false ~fallback:(rr ())
                [ fault Event.Corrupt oid ])
           [| body |]);
      check_int
        (Printf.sprintf "reads through corrupt replica %d" oid)
        10 !seen;
      check_bool "detected" true ((H.stats ()).H.corrupt_detected > 0))
    [ -1; -2; -3 ]

let test_replicated_survives_stuck_commit_replica () =
  reset ();
  let r = HR.make ~name:"h" 0 in
  let a = ref (-1) and b = ref (-1) and ok = ref false in
  let body () =
    HR.write r 1;
    a := HR.read r;
    let v1 = HR.read r in
    ok := HR.cas r ~expected:v1 ~desired:2;
    b := HR.read r
  in
  (* stick the commit replica (first base cell) before anything runs: the
     write must land on the other two, and the CAS must fail over *)
  ignore
    (Sim.run
       ~sched:
         (Scheduler.replay_decisions ~lenient:false ~fallback:(rr ())
            [ fault Event.Stuck_cell (-1) ])
       [| body |]);
  check_int "write visible despite stuck replica" 1 !a;
  check_bool "cas failed over and succeeded" true !ok;
  check_int "cas visible" 2 !b

let test_replicated_faa_with_faults () =
  reset ();
  let r = HR.make ~name:"ctr" 0 in
  let out = ref [] in
  let body () =
    out := HR.fetch_and_add r 5 :: !out;
    out := HR.fetch_and_add r 3 :: !out;
    out := HR.read r :: !out
  in
  ignore
    (Sim.run
       ~sched:(inject_at ~clock:3 ~kind:Event.Corrupt ~oid:(-2) (rr ()))
       [| body |]);
  check_bool "faa sequence" true (!out = [ 8; 5; 0 ])

(* ---- Replicated tolerance boundary: k = 1 has no spare replica, k = 2
   is the smallest array where CAS can fail over from a stuck commit
   replica to a live one ---- *)

module HR1 =
  H.Replicated
    (M)
    (struct
      let k = 1
    end)

module HR2 =
  H.Replicated
    (M)
    (struct
      let k = 2
    end)

let test_replicated_k1_cannot_survive_stuck_cell () =
  reset ();
  let r = HR1.make ~name:"h" 0 in
  let seen = ref (-1) and ok = ref true in
  let body () =
    HR1.write r 5;
    seen := HR1.read r;
    ok := HR1.cas r ~expected:5 ~desired:7
  in
  (* stick the only replica before anything runs: ⌊(1-1)/2⌋ = 0 faults
     tolerated, so the write never lands in shared memory and CAS — whose
     fail-over is a no-op mod 1 — must give up after its retries *)
  ignore
    (Sim.run
       ~sched:
         (Scheduler.replay_decisions ~lenient:false ~fallback:(rr ())
            [ fault Event.Stuck_cell (-1) ])
       [| body |]);
  check_int "read is served from the local cache only" 5 !seen;
  check_bool "cas fails permanently with no replica to fail over to" false
    !ok;
  let s = H.stats () in
  check_bool "the stale cell was detected" true (s.H.stale_detected > 0);
  check_bool "repair was attempted and retried" true (s.H.retries > 0)

let test_replicated_k2_fails_over_stuck_commit () =
  reset ();
  let r = HR2.make ~name:"h" 0 in
  let a = ref (-1) and b = ref (-1) and ok = ref false in
  let body () =
    HR2.write r 1;
    a := HR2.read r;
    ok := HR2.cas r ~expected:1 ~desired:2;
    b := HR2.read r
  in
  (* stick replica "h/0" — the designated commit replica.  The write lands
     on replica 1; CAS finds the commit replica unrepairable, advances to
     replica 1, and succeeds there. *)
  ignore
    (Sim.run
       ~sched:
         (Scheduler.replay_decisions ~lenient:false ~fallback:(rr ())
            [ fault Event.Stuck_cell (-1) ])
       [| body |]);
  check_int "write visible via the live replica" 1 !a;
  check_bool "cas failed over to the live replica and succeeded" true !ok;
  check_int "committed value readable" 2 !b

(* ---- E15, constructive half: the paper's algorithms over hardened
   registers stay linearizable under the storms that break raw cells ---- *)

let hardened_chaos_campaign impl ~seeds =
  (* bin/simulate.exe's flat scenario under a corrupt/stale/lose storm *)
  let config =
    {
      Psnap_harness.Scenario.default with
      impl;
      m = 6;
      r = 3;
      updaters = 2;
      updates = 4;
      scanners = 1;
      scans = 3;
      seeds;
      check = true;
      mem_faults = "corrupt,stale,lose";
      mem_rate = 0.03;
      mem_max = 6;
    }
  in
  reset ();
  let scenario = Psnap_harness.Scenarios.flat config in
  check_int "every execution linearizable" 0
    (Psnap_harness.Campaign.run config scenario);
  check_bool "campaign injected faults" true
    (Metrics.total_injected (Metrics.mem_faults ()) > 0);
  check_bool "hardening detected faults" true
    (detected () + (H.stats ()).H.repairs > 0)

let test_fig3_hardened_linearizable_under_storm () =
  hardened_chaos_campaign "fig3-hardened" ~seeds:20

let test_fig1_hardened_linearizable_under_storm () =
  hardened_chaos_campaign "fig1-hardened" ~seeds:20

let test_fig3_selfcheck_linearizable_under_storm () =
  hardened_chaos_campaign "fig3-selfcheck" ~seeds:20

let () =
  Alcotest.run "hardened"
    [
      ( "semantics",
        [
          Alcotest.test_case "selfcheck: registers and CAS" `Quick
            (hardened_semantics (module HS));
          Alcotest.test_case "replicated: registers and CAS" `Quick
            (hardened_semantics (module HR));
        ] );
      ( "selfcheck",
        [
          Alcotest.test_case "detects + repairs corruption" `Quick
            test_selfcheck_detects_corrupt;
          Alcotest.test_case "survives lost write" `Quick
            test_selfcheck_survives_lost_write;
          Alcotest.test_case "survives stale read" `Quick
            test_selfcheck_survives_stale_read;
          Alcotest.test_case "survives acked-but-lost CAS" `Quick
            test_selfcheck_survives_acked_lost_cas;
        ] );
      ( "replicated",
        [
          Alcotest.test_case "survives corrupt of each replica" `Quick
            test_replicated_survives_corrupt_of_each_replica;
          Alcotest.test_case "survives a stuck commit replica" `Quick
            test_replicated_survives_stuck_commit_replica;
          Alcotest.test_case "fetch&add with a corrupt replica" `Quick
            test_replicated_faa_with_faults;
          Alcotest.test_case "k=1: no tolerance for a stuck cell" `Quick
            test_replicated_k1_cannot_survive_stuck_cell;
          Alcotest.test_case "k=2: stuck commit replica fails over" `Quick
            test_replicated_k2_fails_over_stuck_commit;
        ] );
      ( "e15-constructive",
        [
          Alcotest.test_case "fig3-hardened under storm" `Slow
            test_fig3_hardened_linearizable_under_storm;
          Alcotest.test_case "fig1-hardened under storm" `Slow
            test_fig1_hardened_linearizable_under_storm;
          Alcotest.test_case "fig3-selfcheck under storm" `Slow
            test_fig3_selfcheck_linearizable_under_storm;
        ] );
    ]
