(* The resilient serving layer (docs/MODEL.md §11): budgeted scans that
   degrade explicitly instead of retrying forever, circuit breakers that
   isolate wounded shards and re-close after probing, and self-healing
   shard rebuilds that survive a stuck epoch cell — all while every scan
   reported Atomic stays linearizable. *)

open Psnap
module M = Mem.Sim
module RS = Sim_resilient_fig3

let () = M.set_strict true

let () = M.set_fault_tracking true

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let rr () = Scheduler.round_robin ()

let reset () =
  Sim.reset_prerun_oids ();
  M.reset_fault_counts ();
  Mem.Hardened.reset_stats ();
  Metrics.reset_serving ()

(* ---- sequential semantics ---- *)

let test_roundtrip () =
  reset ();
  let m = 10 in
  let t = RS.create ~n:2 (Array.init m (fun i -> 100 + i)) in
  let body () =
    let h = RS.handle t ~pid:0 in
    (match RS.scan_outcome h (Array.init m Fun.id) with
    | RS.Atomic vs ->
      Array.iteri (fun i v -> check_int "initial" (100 + i) v) vs
    | RS.Degraded _ -> Alcotest.fail "solo scan degraded");
    for i = 0 to m - 1 do
      RS.update h i (200 + i)
    done;
    match RS.scan_outcome h [| 1; 4; 7 |] with
    | RS.Atomic vs ->
      check_bool "updated values" true (vs = [| 201; 204; 207 |]);
      check_int "single round suffices when quiet" 2 (RS.last_scan_rounds h)
    | RS.Degraded _ -> Alcotest.fail "solo scan degraded"
  in
  ignore (Sim.run ~sched:(rr ()) [| body |]);
  check_int "no degraded scans" 0 (Metrics.serving ()).Metrics.degraded_scans

(* ---- deadline: budget exhaustion degrades explicitly ---- *)

(* A tight budget and a continuously interfering updater: under the
   round-robin scheduler every validation round observes fresh epochs, so
   the scan must exhaust its 2-round budget and report the failing
   components instead of retrying forever. *)
module RS_tight =
  Psnap.Runtime.Resilient.Make (Mem.Sim) (Sim_fig3) (Sim_fig3)
    (struct
      let shards = 2
      let partition = `Round_robin
      let max_rounds = 2
      let backoff_base = 0 (* keep the interference window tight *)
      let backoff_max = 0
      let breaker_threshold = 1000 (* breakers out of the picture here *)
      let breaker_cooldown = 4
      let probe_successes = 1
      let heal_quiesce = 16
    end)

let test_budget_exhaustion_degrades () =
  reset ();
  let t = RS_tight.create ~n:2 [| 0; 0 |] in
  let outcome = ref None in
  let updater () =
    let h = RS_tight.handle t ~pid:0 in
    for k = 1 to 400 do
      RS_tight.update h (k mod 2) k
    done
  in
  let scanner () =
    let h = RS_tight.handle t ~pid:1 in
    let out = RS_tight.scan_outcome h [| 0; 1 |] in
    outcome := Some (out, RS_tight.last_scan_rounds h)
  in
  ignore (Sim.run ~sched:(rr ()) [| updater; scanner |]);
  match !outcome with
  | Some (RS_tight.Degraded { suspects; failed; rounds; _ }, last_rounds) ->
    check_int "stopped exactly at the budget" 2 rounds;
    check_int "last_scan_rounds agrees" 2 last_rounds;
    check_bool "suspect shards reported" true (suspects <> []);
    check_bool "failing (component, epoch) pairs reported" true (failed <> []);
    check_bool "epochs in the report are real" true
      (List.for_all (fun (i, e) -> i >= 0 && i < 2 && e > 0) failed);
    check_int "metrics counted it" 1
      (Metrics.serving ()).Metrics.degraded_scans
  | Some (RS_tight.Atomic _, _) ->
    Alcotest.fail "scan validated despite a continuous updater and budget 2"
  | None -> Alcotest.fail "scanner never ran"

(* ---- circuit breaker: open -> half-open -> re-close ---- *)

(* Threshold 1 so the first budget-exhausted scan opens the wounded
   shard's circuit; the updater then goes quiet, so after the cooldown the
   probe validates and the breaker re-closes — the full lifecycle in one
   deterministic run. *)
module RS_breaker =
  Psnap.Runtime.Resilient.Make (Mem.Sim) (Sim_fig3) (Sim_fig3)
    (struct
      let shards = 2
      let partition = `Round_robin
      let max_rounds = 2
      let backoff_base = 0
      let backoff_max = 0
      let breaker_threshold = 1
      let breaker_cooldown = 2
      let probe_successes = 1
      let heal_quiesce = 16
    end)

let test_breaker_lifecycle () =
  reset ();
  let t = RS_breaker.create ~n:2 [| 0; 0 |] in
  let states = ref [] in
  let atomic_again = ref false in
  let updater () =
    let h = RS_breaker.handle t ~pid:0 in
    for k = 1 to 60 do
      RS_breaker.update h (k mod 2) k
    done
  in
  let scanner () =
    let h = RS_breaker.handle t ~pid:1 in
    (* enough scans to open the breaker while the updater is live, tick
       through the cooldown, probe, and scan validated again after the
       updater finished *)
    for _ = 1 to 40 do
      let out = RS_breaker.scan_outcome h [| 0; 1 |] in
      states :=
        (RS_breaker.breaker_state t 0, RS_breaker.breaker_state t 1)
        :: !states;
      match out with
      | RS_breaker.Atomic _ -> atomic_again := true
      | RS_breaker.Degraded _ -> ()
    done
  in
  ignore (Sim.run ~sched:(rr ()) [| updater; scanner |]);
  let sv = Metrics.serving () in
  check_bool "a circuit opened" true (sv.Metrics.breaker_opens >= 1);
  check_bool "it half-opened after the cooldown" true
    (sv.Metrics.breaker_half_opens >= 1);
  check_bool "a probe re-closed it" true (sv.Metrics.breaker_closes >= 1);
  check_bool "observed an Open state" true
    (List.exists (fun (a, b) -> a = RS_breaker.Open || b = RS_breaker.Open)
       !states);
  check_bool "scans validate again after the storm" true !atomic_again;
  check_bool "ends closed" true
    (RS_breaker.breaker_state t 0 = RS_breaker.Closed
    && RS_breaker.breaker_state t 1 = RS_breaker.Closed)

let test_force_open_isolates_shard () =
  reset ();
  let t = RS.create ~n:1 (Array.init 8 (fun i -> i)) in
  RS.force_open t 0;
  let body () =
    let h = RS.handle t ~pid:0 in
    (* a scan avoiding the open shard (components 1,5 -> shards 1) is
       served Atomic; one touching shard 0 degrades with the suspect *)
    (match RS.scan_outcome h [| 1; 5 |] with
    | RS.Atomic _ -> ()
    | RS.Degraded _ -> Alcotest.fail "healthy-shard scan degraded");
    match RS.scan_outcome h [| 0; 1 |] with
    | RS.Atomic _ -> Alcotest.fail "open shard served as validated"
    | RS.Degraded { suspects; rounds; _ } ->
      check_bool "open shard suspected" true (List.mem 0 suspects);
      check_int "no validation rounds wasted on it" 1 rounds
  in
  ignore (Sim.run ~sched:(rr ()) [| body |]);
  check_bool "breaker still open" true (RS.breaker_state t 0 = RS.Open)

(* ---- self-healing ---- *)

(* Deterministic rebuild: no concurrency, heal directly, and the rebuilt
   shard must carry the exact pre-heal values and serve validated scans. *)
let test_heal_preserves_values () =
  reset ();
  let m = 8 in
  let t = RS.create ~n:1 (Array.init m (fun i -> -(i + 1))) in
  let body () =
    let h = RS.handle t ~pid:0 in
    for i = 0 to m - 1 do
      RS.update h i (10 * (i + 1))
    done;
    check_int "gen 1 before" 1 (RS.shard_gen t ~pid:0 0);
    RS.heal t ~pid:0 0;
    check_int "gen bumped by the rebuild" 2 (RS.shard_gen t ~pid:0 0);
    (* updates and scans keep working across the generation swap *)
    RS.update h 0 999;
    match RS.scan_outcome h (Array.init m Fun.id) with
    | RS.Atomic vs ->
      check_int "healed shard serves the new value" 999 vs.(0);
      for i = 1 to m - 1 do
        check_int "values survived the rebuild" (10 * (i + 1)) vs.(i)
      done
    | RS.Degraded _ -> Alcotest.fail "post-heal scan degraded"
  in
  ignore (Sim.run ~sched:(rr ()) [| body |]);
  let sv = Metrics.serving () in
  check_int "one heal started" 1 sv.Metrics.heals_started;
  check_int "one heal completed" 1 sv.Metrics.heals_completed;
  check_int "none aborted" 0 sv.Metrics.heals_aborted

(* A stuck epoch cell: updates keep completing (nonces keep tags unique),
   the duplicate draw is detected, the shard is rebuilt with a fresh epoch
   cell, and scans validate against the healed shard. *)
let test_stuck_epoch_triggers_heal () =
  reset ();
  let m = 8 in
  let t = RS.create ~n:2 (Array.init m (fun i -> -(i + 1))) in
  let post_heal_atomic = ref 0 in
  let updater () =
    let h = RS.handle t ~pid:0 in
    for k = 1 to 20 do
      RS.update h ((4 * k) mod m) k (* components 0,4 -> shard 0 *)
    done
  in
  let scanner () =
    let h = RS.handle t ~pid:1 in
    for _ = 1 to 6 do
      match RS.scan_outcome h [| 0; 4 |] with
      | RS.Atomic _ when RS.shard_gen t ~pid:1 0 > 1 -> incr post_heal_atomic
      | _ -> ()
    done
  in
  ignore
    (Sim.run
       ~sched:
         (Scheduler.mem_fault_on_cell ~kind:Event.Stuck_cell
            ~name_prefix:"rshard0.epoch" (rr ()))
       [| updater; scanner |]);
  let sv = Metrics.serving () in
  check_bool "duplicate epoch detected" true (sv.Metrics.stuck_epochs >= 1);
  check_bool "heal completed" true (sv.Metrics.heals_completed >= 1);
  check_bool "validated scans of the rebuilt shard" true
    (!post_heal_atomic >= 1)

(* ---- tags: (epoch, nonce) unique across handles ---- *)

(* Two processes update shard 0 while its epoch cell is stuck, so epoch
   draws repeat.  Each first restarts six times — a fresh handle per
   update, so no handle sees its own draw repeat and nothing triggers a
   heal — then runs one handle long enough to detect the stuck cell, and
   finally, after an explicit heal, updates the rebuilt instance through
   yet another handle.  No two updates may install the same (epoch,
   nonce) tag: the nonce carries uniqueness whenever the epoch does not. *)
let test_tags_unique_across_handles () =
  reset ();
  let m = 8 in
  let t = RS.create ~n:2 (Array.init m (fun i -> -(i + 1))) in
  let tags = ref [] in
  let healed_gen = ref 0 in
  (* components 0 and 4: shard 0 under round-robin x4 *)
  let update h k =
    RS.update h (4 * (k mod 2)) k;
    tags := RS.last_tag h :: !tags
  in
  let proc pid () =
    for k = 1 to 6 do
      update (RS.handle t ~pid) k
    done;
    let h = RS.handle t ~pid in
    for k = 1 to 12 do
      update h k
    done;
    if pid = 0 then RS.heal t ~pid 0;
    let h = RS.handle t ~pid in
    for k = 1 to 6 do
      update h k
    done;
    if pid = 0 then healed_gen := RS.shard_gen t ~pid 0
  in
  ignore
    (Sim.run
       ~sched:
         (Scheduler.mem_fault_on_cell ~kind:Event.Stuck_cell
            ~name_prefix:"rshard0.epoch" (rr ()))
       [| proc 0; proc 1 |]);
  let tags = !tags in
  check_int "every update recorded" 48 (List.length tags);
  check_int "no two updates share a tag" 48
    (List.length (List.sort_uniq compare tags));
  let stuck_epoch = fst (List.nth tags (List.length tags - 1)) in
  check_bool "the restarts all drew the stuck epoch" true
    (List.length (List.filter (fun (e, _) -> e = stuck_epoch) tags) >= 12);
  check_bool "updates landed on a healed shard" true (!healed_gen > 1);
  check_bool "no update kept the initial tag" false (List.mem (0, 0) tags)

(* ---- chaos campaign: Atomic is always linearizable, budgets hold ---- *)

let chaos_campaign ~seeds ~stick =
  (* bin/simulate.exe's resilient scenario: its campaign fails on any
     non-linearizable Atomic scan and on any scan over its 6-round budget,
     and, with a stuck epoch, unless a rebuilt shard is scanned again *)
  let config =
    {
      Psnap_harness.Scenario.default with
      impl = "resilient";
      m = 16;
      r = 5;
      updates = 12;
      scans = 5;
      seeds;
      nemesis = "chaos";
      stick_epoch = (if stick then Some 1 else None);
    }
  in
  reset ();
  let scenario = Psnap_harness.Scenarios.resilient config in
  check_int "Atomic scans linearizable, budgets hold" 0
    (Psnap_harness.Campaign.run config scenario);
  check_bool "campaign produced atomic scans" true
    (Psnap_harness.Campaign.counter scenario "atomic_scans" > 0)

let test_chaos_linearizable () = chaos_campaign ~seeds:12 ~stick:false

let test_chaos_with_stuck_epochs () =
  chaos_campaign ~seeds:12 ~stick:true;
  let sv = Metrics.serving () in
  check_bool "stuck epochs seen" true (sv.Metrics.stuck_epochs >= 1);
  check_bool "at least one rebuild completed across the campaign" true
    (sv.Metrics.heals_completed >= 1)

(* ---- the Snap face drives the multicore load generator ---- *)

module RS_mc =
  Psnap.Runtime.Resilient.Make (Mem.Atomic) (Mc_fig3) (Mc_fig3)
    (struct
      let shards = 4
      let partition = `Round_robin
      let max_rounds = 6
      let backoff_base = 2
      let backoff_max = 16
      let breaker_threshold = 3
      let breaker_cooldown = 4
      let probe_successes = 2
      let heal_quiesce = 64
    end)

let test_snap_loadgen_smoke () =
  Metrics.reset_serving ();
  let rep =
    Psnap.Runtime.Loadgen.run
      (module RS_mc.Snap)
      {
        Psnap.Runtime.Loadgen.default with
        m = 64;
        r = 4;
        domains = 2;
        warmup_s = 0.02;
        duration_s = 0.1;
      }
  in
  check_bool "did updates" true (rep.Psnap.Runtime.Loadgen.updates > 0);
  check_bool "did scans" true (rep.Psnap.Runtime.Loadgen.scans > 0)

let () =
  Alcotest.run "resilient"
    [
      ( "semantics",
        [ Alcotest.test_case "sequential roundtrip" `Quick test_roundtrip ] );
      ( "deadline",
        [
          Alcotest.test_case "budget exhaustion degrades explicitly" `Quick
            test_budget_exhaustion_degrades;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "open -> half-open -> re-close" `Quick
            test_breaker_lifecycle;
          Alcotest.test_case "force-open isolates the shard" `Quick
            test_force_open_isolates_shard;
        ] );
      ( "heal",
        [
          Alcotest.test_case "rebuild preserves values" `Quick
            test_heal_preserves_values;
          Alcotest.test_case "stuck epoch triggers a rebuild" `Quick
            test_stuck_epoch_triggers_heal;
          Alcotest.test_case "tags unique across handles and heals" `Quick
            test_tags_unique_across_handles;
        ] );
      ( "chaos",
        [
          Alcotest.test_case "atomic scans linearizable (12 seeds)" `Quick
            test_chaos_linearizable;
          Alcotest.test_case "stuck epochs: heals complete, checks hold"
            `Quick test_chaos_with_stuck_epochs;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "Snap face smoke (2 domains)" `Quick
            test_snap_loadgen_smoke;
        ] );
    ]
