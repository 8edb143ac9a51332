(* Wait-freedom and worst-case step bounds.

   Theorem 3's headline claim: a Figure 3 partial scan of r components
   finishes within 2r+1 collects — O(r²) steps — no matter what the
   adversary and the other processes do, and independently of m and n.
   These tests starve the scanner behind update storms and assert the exact
   bounds; companion tests check Figure 1's and Afek's scans are wait-free
   (bounded by contention) and that operations survive crashes of everyone
   else. *)

open Psnap

let check_bool = Alcotest.(check bool)

(* scan step budget for Figure 3: announce(1) + join(<=4) + collects
   ((2r+1) * r reads) + leave(2); extraction is local *)
let fig3_scan_budget r = ((2 * r) + 1) * r + 7

(* A scan measurement harness: [updaters] storm components while one
   scanner performs [scans] measured scans of [idxs]; returns max steps and
   max collects over the scans. *)
let measure_scans (sched_of : int -> Scheduler.t) ~seeds ~m ~updaters ~updates
    ~idxs ~scans =
  let module S = Sim_fig3 in
  let worst_steps = ref 0 and worst_collects = ref 0 in
  for seed = 0 to seeds - 1 do
    let t = S.create ~n:(updaters + 1) (Array.init m (fun i -> -i - 1)) in
    let scanner_pid = updaters in
    let rec_ = Metrics.create () in
    let procs =
      Array.init (updaters + 1) (fun pid ->
          if pid < updaters then fun () ->
            let h = S.handle t ~pid in
            for k = 1 to updates do
              S.update h ((k + pid) mod m) ((pid * 100_000) + k)
            done
          else fun () ->
            let h = S.handle t ~pid in
            for _ = 1 to scans do
              Metrics.measure rec_ ~pid ~kind:"scan" (fun () ->
                  ignore (S.scan h idxs));
              worst_collects := max !worst_collects (S.last_scan_collects h)
            done)
    in
    ignore (Sim.run ~sched:(sched_of seed) procs);
    ignore scanner_pid;
    worst_steps :=
      max !worst_steps (Metrics.max_steps (Metrics.by_kind rec_ "scan"))
  done;
  (!worst_steps, !worst_collects)

let test_fig3_scan_bound () =
  List.iter
    (fun r ->
      let idxs = Array.init r (fun i -> i * 2) in
      let steps, collects =
        measure_scans
          (fun seed -> Scheduler.starve ~victims:[ 4 ] ~seed ())
          ~seeds:15 ~m:16 ~updaters:4 ~updates:60 ~idxs ~scans:5
      in
      check_bool
        (Printf.sprintf "r=%d: collects %d <= %d" r collects ((2 * r) + 1))
        true
        (collects <= (2 * r) + 1);
      check_bool
        (Printf.sprintf "r=%d: steps %d <= %d" r steps (fig3_scan_budget r))
        true
        (steps <= fig3_scan_budget r))
    [ 1; 2; 4; 8 ]

let test_fig3_scan_independent_of_m () =
  (* Same r, two very different m: the worst-case scan cost must obey the
     same m-independent budget (locality). *)
  let r = 4 in
  let idxs = Array.init r (fun i -> i) in
  let run m =
    fst
      (measure_scans
         (fun seed -> Scheduler.starve ~victims:[ 3 ] ~seed ())
         ~seeds:10 ~m ~updaters:3 ~updates:40 ~idxs ~scans:5)
  in
  let small = run 8 and large = run 1024 in
  check_bool
    (Printf.sprintf "m=8: %d within budget" small)
    true
    (small <= fig3_scan_budget r);
  check_bool
    (Printf.sprintf "m=1024: %d within budget" large)
    true
    (large <= fig3_scan_budget r)

let test_fig3_scan_independent_of_updater_count () =
  (* Doubling the adversary updaters must not move the worst-case budget. *)
  let r = 3 in
  let idxs = [| 0; 1; 2 |] in
  let run updaters =
    fst
      (measure_scans
         (fun seed -> Scheduler.starve ~victims:[ updaters ] ~seed ())
         ~seeds:10 ~m:8 ~updaters ~updates:40 ~idxs ~scans:5)
  in
  let a = run 2 and b = run 8 in
  check_bool (Printf.sprintf "2 updaters: %d" a) true (a <= fig3_scan_budget r);
  check_bool (Printf.sprintf "8 updaters: %d" b) true (b <= fig3_scan_budget r)

(* Figure 1: scans are wait-free with a contention-dependent bound —
   collects <= 2*Cu + 1 where Cu is the number of update operations
   overlapping the scan (coarsely bounded here by all updates). *)
let test_fig1_scan_waitfree_under_storm () =
  let module S = (val List.assoc "fig1" Psnap_harness.Scenarios.Sim_stack.bases) in
  for seed = 0 to 9 do
    let updaters = 3 and updates = 50 in
    let t = S.create ~n:(updaters + 1) (Array.init 8 (fun i -> -i - 1)) in
    let finished = ref 0 in
    let worst_collects = ref 0 in
    let procs =
      Array.init (updaters + 1) (fun pid ->
          if pid < updaters then fun () ->
            let h = S.handle t ~pid in
            for k = 1 to updates do
              S.update h ((k + pid) mod 8) ((pid * 100_000) + k)
            done
          else fun () ->
            let h = S.handle t ~pid in
            for _ = 1 to 5 do
              ignore (S.scan h [| 0; 3; 5 |]);
              worst_collects := max !worst_collects (S.last_scan_collects h);
              incr finished
            done)
    in
    ignore
      (Sim.run ~sched:(Scheduler.starve ~victims:[ updaters ] ~seed ()) procs);
    Alcotest.(check int) "all scans finished" 5 !finished;
    check_bool
      (Printf.sprintf "collects %d bounded by 2*updates+1" !worst_collects)
      true
      (!worst_collects <= (2 * updaters * updates) + 1)
  done

(* Everyone else crashes; the survivor's operations still complete, and in
   the solo suffix a Figure 3 scan costs the contention-free minimum. *)
let test_survivor_completes () =
  let module S = Sim_fig3 in
  for seed = 0 to 9 do
    let t = S.create ~n:3 (Array.init 6 (fun i -> -i - 1)) in
    let scans_done = ref 0 in
    let procs =
      [|
        (fun () ->
          let h = S.handle t ~pid:0 in
          for k = 1 to 30 do
            S.update h (k mod 6) k
          done);
        (fun () ->
          let h = S.handle t ~pid:1 in
          for k = 1 to 30 do
            S.update h ((k + 3) mod 6) (100_000 + k)
          done);
        (fun () ->
          let h = S.handle t ~pid:2 in
          for _ = 1 to 4 do
            ignore (S.scan h [| 1; 4 |]);
            incr scans_done
          done);
      |]
    in
    let sched =
      Scheduler.with_crash ~pid:0 ~at_clock:(5 + seed)
        (Scheduler.with_crash ~pid:1 ~at_clock:(9 + seed)
           (Scheduler.random ~seed ()))
    in
    let res = Sim.run ~sched procs in
    Alcotest.(check int) "scanner finished all scans" 4 !scans_done;
    Alcotest.(check (list int)) "both updaters crashed" [ 0; 1 ]
      (List.sort compare res.crashed)
  done

(* Updates are wait-free too: under scanner churn, every update finishes
   (the individually-expensive getSet is still bounded in any finite
   execution). *)
let test_updates_complete_under_scanner_churn () =
  let module S = Sim_fig3 in
  for seed = 0 to 9 do
    let t = S.create ~n:4 (Array.init 6 (fun i -> -i - 1)) in
    let updates_done = ref 0 in
    let procs =
      [|
        (fun () ->
          let h = S.handle t ~pid:0 in
          for k = 1 to 20 do
            S.update h (k mod 6) k;
            incr updates_done
          done);
        (fun () ->
          let h = S.handle t ~pid:1 in
          for _ = 1 to 15 do
            ignore (S.scan h [| 0; 2 |])
          done);
        (fun () ->
          let h = S.handle t ~pid:2 in
          for _ = 1 to 15 do
            ignore (S.scan h [| 1; 2; 3 |])
          done);
        (fun () ->
          let h = S.handle t ~pid:3 in
          for _ = 1 to 15 do
            ignore (S.scan h [| 4 |])
          done);
      |]
    in
    ignore (Sim.run ~sched:(Scheduler.starve ~victims:[ 0 ] ~seed ()) procs);
    Alcotest.(check int) "updates all done" 20 !updates_done
  done

(* The paper's motivation for helping (Section 3): without it, "a slow
   scanner can keep seeing different collects if fast updates are
   concurrently being performed".  Under a schedule that completes one
   update between any two collects, the helping-free double-collect scan
   diverges while Figure 3 finishes within its cap — same adversary. *)
let test_nonblocking_diverges_where_fig3_terminates () =
  let r = 2 in
  let adversary scanner_pid updates_done =
    (* alternate: one full update, then r scanner steps (one collect) *)
    let target = ref None in
    let budget = ref 0 in
    let pick (view : Scheduler.view) =
      let runnable = view.Scheduler.runnable in
      let mem p = Array.exists (fun q -> q = p) runnable in
      let rec go guard =
        if guard = 0 then Scheduler.Run runnable.(0)
        else
          match !target with
          | Some base ->
            if mem 0 && !updates_done <= base then Scheduler.Run 0
            else begin
              target := None;
              budget := r;
              go (guard - 1)
            end
          | None ->
            if !budget > 0 && mem scanner_pid then begin
              decr budget;
              Scheduler.Run scanner_pid
            end
            else if mem 0 then begin
              target := Some !updates_done;
              go (guard - 1)
            end
            else Scheduler.Run scanner_pid
      in
      go 4
    in
    { Scheduler.name = "update-per-collect"; pick }
  in
  (* non-blocking: diverges (gives up after 100 collects) *)
  let module N = Snapshot.Nonblocking (Mem.Sim) in
  let nb = N.create ~n:2 [| 0; 0 |] in
  let updates_done = ref 0 in
  let starved = ref false in
  let procs =
    [|
      (fun () ->
        let h = N.handle nb ~pid:0 in
        for k = 1 to 3000 do
          N.update h (k mod 2) k;
          incr updates_done
        done);
      (fun () ->
        let h = N.handle nb ~pid:1 in
        N.set_max_collects h 100;
        match N.scan h [| 0; 1 |] with
        | _ -> ()
        | exception Psnap.Snapshot.Starved -> starved := true);
    |]
  in
  ignore (Sim.run ~sched:(adversary 1 updates_done) procs);
  Alcotest.(check bool) "non-blocking scan starved" true !starved;
  (* Figure 3 under the same adversary: completes within the cap *)
  let module S = Sim_fig3 in
  let t = S.create ~n:2 [| 0; 0 |] in
  let updates_done = ref 0 in
  let collects = ref 0 in
  let procs =
    [|
      (fun () ->
        let h = S.handle t ~pid:0 in
        for k = 1 to 3000 do
          S.update h (k mod 2) k;
          incr updates_done
        done);
      (fun () ->
        let h = S.handle t ~pid:1 in
        ignore (S.scan h [| 0; 1 |]);
        collects := S.last_scan_collects h);
    |]
  in
  ignore (Sim.run ~sched:(adversary 1 updates_done) procs);
  Alcotest.(check bool)
    (Printf.sprintf "fig3 completed in %d collects" !collects)
    true
    (!collects > 0 && !collects <= (2 * r) + 1)

(* Contention-free fast path: a solo Figure 3 scan is two collects. *)
let test_fig3_solo_scan_cost () =
  let module S = Sim_fig3 in
  let t = S.create ~n:1 (Array.init 32 (fun i -> i)) in
  let steps = ref 0 and collects = ref 0 in
  let procs =
    [|
      (fun () ->
        let h = S.handle t ~pid:0 in
        let s0 = Sim.steps_of 0 in
        ignore (S.scan h [| 3; 9; 27 |]);
        steps := Sim.steps_of 0 - s0;
        collects := S.last_scan_collects h);
    |]
  in
  ignore (Sim.run ~sched:(Scheduler.round_robin ()) procs);
  Alcotest.(check int) "two collects" 2 !collects;
  (* announce 1 + join <= 4 + 2 collects * 3 reads + leave 2 = 13 *)
  check_bool (Printf.sprintf "solo cost %d <= 13" !steps) true (!steps <= 13)

let () =
  Alcotest.run "waitfree"
    [
      ( "fig3-theorem3",
        [
          Alcotest.test_case "scan bound 2r+1 collects" `Quick
            test_fig3_scan_bound;
          Alcotest.test_case "independent of m" `Quick
            test_fig3_scan_independent_of_m;
          Alcotest.test_case "independent of updaters" `Quick
            test_fig3_scan_independent_of_updater_count;
          Alcotest.test_case "solo scan cost" `Quick test_fig3_solo_scan_cost;
        ] );
      ( "fig1",
        [
          Alcotest.test_case "scan wait-free under storm" `Quick
            test_fig1_scan_waitfree_under_storm;
        ] );
      ( "helping-necessity",
        [
          Alcotest.test_case "non-blocking diverges, fig3 terminates" `Quick
            test_nonblocking_diverges_where_fig3_terminates;
        ] );
      ( "crashes",
        [
          Alcotest.test_case "survivor completes" `Quick test_survivor_completes;
        ] );
      ( "updates",
        [
          Alcotest.test_case "complete under scanner churn" `Quick
            test_updates_complete_under_scanner_churn;
        ] );
    ]
