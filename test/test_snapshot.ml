(* Tests of the three snapshot implementations: sequential semantics,
   linearizability under many random/adversarial schedules (exact checker on
   small histories, observation checker on large ones), crash tolerance, and
   a sensitivity check proving the pipeline catches broken algorithms. *)

open Psnap

let check_bool = Alcotest.(check bool)

module type SNAP = Snapshot.S

(* A flat algorithm from the stack registry over the simulator. *)
let sim name = List.assoc name Psnap_harness.Scenarios.Sim_stack.bases

let impls : (string * (module SNAP)) list =
  [
    ("afek-full", sim "afek");
    ("fig1-reg", sim "fig1");
    ("fig3-cas", (module Sim_fig3));
    ("fig3-cas/bounded-aset", sim "fig3-bounded-aset");
    ("fig1-small-regs", sim "fig1-small");
    ("fig3-small-regs", sim "fig3-small");
    ("farray", sim "farray");
    ("nonblocking", sim "nonblocking");
    ("fig1-adaptive", sim "fig1-adaptive");
  ]

let in_sim ?sched f =
  let sched = Option.value sched ~default:(Scheduler.round_robin ()) in
  let out = ref None in
  ignore (Sim.run ~sched [| (fun () -> out := Some (f ())) |]);
  Option.get !out

(* ---- sequential semantics ---- *)

let test_sequential (module S : SNAP) () =
  in_sim (fun () ->
      let t = S.create ~n:1 [| 10; 20; 30; 40 |] in
      let h = S.handle t ~pid:0 in
      Alcotest.(check (array int))
        "initial values" [| 10; 20; 30; 40 |]
        (S.scan h [| 0; 1; 2; 3 |]);
      S.update h 2 99;
      Alcotest.(check (array int)) "update visible" [| 99 |] (S.scan h [| 2 |]);
      Alcotest.(check (array int))
        "others untouched" [| 10; 20; 40 |]
        (S.scan h [| 0; 1; 3 |]);
      S.update h 2 100;
      S.update h 0 (-1);
      Alcotest.(check (array int))
        "latest wins" [| -1; 100 |]
        (S.scan h [| 0; 2 |]))

let test_scan_argument_shapes (module S : SNAP) () =
  in_sim (fun () ->
      let t = S.create ~n:1 [| 1; 2; 3 |] in
      let h = S.handle t ~pid:0 in
      Alcotest.(check (array int)) "empty scan" [||] (S.scan h [||]);
      Alcotest.(check (array int))
        "unsorted args" [| 3; 1 |]
        (S.scan h [| 2; 0 |]);
      Alcotest.(check (array int))
        "duplicate args" [| 2; 2; 1 |]
        (S.scan h [| 1; 1; 0 |]);
      Alcotest.(check (array int)) "singleton" [| 2 |] (S.scan h [| 1 |]))

let test_sequential_model (module S : SNAP) () =
  (* Random single-process op sequences against the vector model. *)
  let st = Random.State.make [| 7 |] in
  for _ = 1 to 25 do
    in_sim (fun () ->
        let m = 1 + Random.State.int st 6 in
        let model = Array.init m (fun i -> -(i + 1)) in
        let t = S.create ~n:1 (Array.copy model) in
        let h = S.handle t ~pid:0 in
        for k = 1 to 40 do
          if Random.State.bool st then begin
            let i = Random.State.int st m in
            model.(i) <- k;
            S.update h i k
          end
          else begin
            let r = Random.State.int st (m + 1) in
            let idxs = Array.init r (fun _ -> Random.State.int st m) in
            let expected = Array.map (fun i -> model.(i)) idxs in
            let got = S.scan h idxs in
            if got <> expected then
              Alcotest.failf "sequential model mismatch (m=%d)" m
          end
        done)
  done

(* ---- concurrent runs: history recording ---- *)

(* values are globally unique: pid * 10_000 + seq; init components are
   distinct negatives, as required by the observation checker *)
let init_of_m m = Array.init m (fun i -> -(i + 1))

(* First-class-module-friendly wrapper: one handle per pid, exposed as plain
   closures so the abstract type does not escape. *)
type wrapped = {
  w_update : int -> int -> int -> unit;  (** pid, component, value *)
  w_scan : int -> int array -> int array;  (** pid, components *)
}

let wrap (module S : SNAP) ~n init =
  let t = S.create ~n init in
  let handles = Array.init n (fun pid -> S.handle t ~pid) in
  {
    w_update = (fun pid i v -> S.update handles.(pid) i v);
    w_scan = (fun pid idxs -> S.scan handles.(pid) idxs);
  }

let updater w hist ~pid ~updates ~m ~mstride () =
  for k = 1 to updates do
    let i = ((k * mstride) + pid) mod m in
    let v = (pid * 10_000) + k in
    ignore
      (History.record hist ~pid (Snapshot_spec.Update (i, v)) (fun () ->
           w.w_update pid i v;
           Snapshot_spec.Ack))
  done

let scanner w hist ~pid ~scans ~idxs () =
  for _ = 1 to scans do
    ignore
      (History.record hist ~pid (Snapshot_spec.Scan idxs) (fun () ->
           Snapshot_spec.Vals (w.w_scan pid idxs)))
  done

let assert_linearizable ~init hist =
  if not (Snapshot_spec.check ~init (History.entries hist)) then
    Alcotest.fail "history not linearizable"

let assert_obs_clean ~init hist =
  match Snapshot_spec.check_observations ~init (History.entries hist) with
  | [] -> ()
  | v :: _ -> Alcotest.failf "violation: %a" Snapshot_spec.pp_violation v

let test_concurrent_small (module S : SNAP) () =
  (* 2 updaters x 3 updates + 2 scanners x 2 scans = 10 ops: exact check. *)
  let m = 4 in
  let init = init_of_m m in
  let schedulers seed =
    [
      Scheduler.random ~seed ();
      Scheduler.bursty ~seed ();
      Scheduler.starve ~victims:[ 2; 3 ] ~seed ();
      Scheduler.pct ~seed ~depth:3 ~expected_steps:400 ();
    ]
  in
  for seed = 0 to 39 do
    List.iter
      (fun sched ->
        let hist = History.create ~now:Sim.mark () in
        let w = wrap (module S) ~n:4 (Array.copy init) in
        let procs =
          [|
            updater w hist ~pid:0 ~updates:3 ~m ~mstride:1;
            updater w hist ~pid:1 ~updates:3 ~m ~mstride:2;
            scanner w hist ~pid:2 ~scans:2 ~idxs:[| 0; 2 |];
            scanner w hist ~pid:3 ~scans:2 ~idxs:[| 1; 2; 3 |];
          |]
        in
        ignore (Sim.run ~sched procs);
        assert_linearizable ~init hist)
      (schedulers seed)
  done

let test_concurrent_large (module S : SNAP) () =
  (* 3 updaters x 25 updates + 2 scanners x 10 scans: observation check. *)
  let m = 8 in
  let init = init_of_m m in
  for seed = 0 to 14 do
    let hist = History.create ~now:Sim.mark () in
    let w = wrap (module S) ~n:5 (Array.copy init) in
    let procs =
      [|
        updater w hist ~pid:0 ~updates:25 ~m ~mstride:1;
        updater w hist ~pid:1 ~updates:25 ~m ~mstride:3;
        updater w hist ~pid:2 ~updates:25 ~m ~mstride:5;
        scanner w hist ~pid:3 ~scans:10 ~idxs:[| 0; 3; 6 |];
        scanner w hist ~pid:4 ~scans:10 ~idxs:[| 1; 3; 7 |];
      |]
    in
    ignore (Sim.run ~sched:(Scheduler.random ~seed ()) procs);
    assert_obs_clean ~init hist
  done

let test_crash_tolerance (module S : SNAP) () =
  (* Updaters crash at arbitrary points; surviving scans stay correct. *)
  let m = 4 in
  let init = init_of_m m in
  for seed = 0 to 19 do
    let at_clock = 7 * seed in
    let hist = History.create ~now:Sim.mark () in
    let w = wrap (module S) ~n:4 (Array.copy init) in
    let procs =
      [|
        updater w hist ~pid:0 ~updates:10 ~m ~mstride:1;
        updater w hist ~pid:1 ~updates:10 ~m ~mstride:2;
        scanner w hist ~pid:2 ~scans:6 ~idxs:[| 0; 1; 2 |];
        scanner w hist ~pid:3 ~scans:6 ~idxs:[| 2; 3 |];
      |]
    in
    let sched =
      Scheduler.with_crash ~pid:(seed mod 2) ~at_clock
        (Scheduler.random ~seed ())
    in
    ignore (Sim.run ~sched procs);
    assert_obs_clean ~init hist
  done

(* crash a SCANNER mid-scan: its announcement stays published forever; later
   updates must still terminate and stay correct *)
let test_crashed_scanner_announcement (module S : SNAP) () =
  let m = 4 in
  let init = init_of_m m in
  for seed = 0 to 9 do
    let hist = History.create ~now:Sim.mark () in
    let w = wrap (module S) ~n:3 (Array.copy init) in
    let procs =
      [|
        scanner w hist ~pid:0 ~scans:4 ~idxs:[| 0; 1; 2; 3 |];
        updater w hist ~pid:1 ~updates:15 ~m ~mstride:1;
        scanner w hist ~pid:2 ~scans:5 ~idxs:[| 1; 3 |];
      |]
    in
    let sched =
      Scheduler.with_crash ~pid:0 ~at_clock:(3 + seed)
        (Scheduler.random ~seed ())
    in
    ignore (Sim.run ~sched procs);
    assert_obs_clean ~init hist
  done

(* ---- sensitivity: a broken snapshot must be rejected ---- *)

(* "Snapshot" whose scan is a single collect — the naive algorithm the
   introduction of the paper explains is inconsistent. *)
module Naive = struct
  module M = Mem.Sim

  type t = int M.ref_ array

  let create init : t = Array.map (fun v -> M.make v) init

  let update (t : t) i v = M.write t.(i) v

  let scan (t : t) idxs = Array.map (fun i -> M.read t.(i)) idxs
end

let test_naive_is_caught () =
  (* Two sequential scans straddling two concurrent updates can observe them
     in opposite orders; the exact checker must reject at least one seed. *)
  let caught = ref false in
  let seed = ref 0 in
  while (not !caught) && !seed < 400 do
    let init = [| -1; -2 |] in
    let hist = History.create ~now:Sim.mark () in
    let t = Naive.create (Array.copy init) in
    let procs =
      [|
        (fun () ->
          for k = 1 to 3 do
            ignore
              (History.record hist ~pid:0
                 (Snapshot_spec.Update (0, k))
                 (fun () ->
                   Naive.update t 0 k;
                   Snapshot_spec.Ack))
          done);
        (fun () ->
          for k = 1 to 3 do
            ignore
              (History.record hist ~pid:1
                 (Snapshot_spec.Update (1, 100 + k))
                 (fun () ->
                   Naive.update t 1 (100 + k);
                   Snapshot_spec.Ack))
          done);
        (fun () ->
          for _ = 1 to 3 do
            ignore
              (History.record hist ~pid:2
                 (Snapshot_spec.Scan [| 0; 1 |])
                 (fun () -> Snapshot_spec.Vals (Naive.scan t [| 0; 1 |])))
          done);
        (fun () ->
          for _ = 1 to 3 do
            ignore
              (History.record hist ~pid:3
                 (Snapshot_spec.Scan [| 1; 0 |])
                 (fun () -> Snapshot_spec.Vals (Naive.scan t [| 1; 0 |])))
          done);
      |]
    in
    ignore (Sim.run ~sched:(Scheduler.random ~seed:!seed ()) procs);
    if not (Snapshot_spec.check ~init (History.entries hist)) then
      caught := true;
    incr seed
  done;
  check_bool "naive snapshot rejected under some schedule" true !caught

(* ---- locality guarantee of the views (helping invariant) ---- *)

let test_borrowed_views_cover_requests (module S : SNAP) () =
  (* View.find_exn inside scan raises if a borrowed view misses a requested
     component; heavy starvation maximizes borrowing.  Completing without
     exception is the assertion. *)
  let m = 10 in
  for seed = 0 to 19 do
    let t = S.create ~n:5 (init_of_m m) in
    let upd pid () =
      let h = S.handle t ~pid in
      for k = 1 to 40 do
        S.update h ((k + pid) mod m) ((pid * 10_000) + k)
      done
    in
    let scn pid idxs () =
      let h = S.handle t ~pid in
      for _ = 1 to 6 do
        let v = S.scan h idxs in
        assert (Array.length v = Array.length idxs)
      done
    in
    let procs =
      [|
        upd 0; upd 1; upd 2; scn 3 [| 1; 4; 7 |]; scn 4 [| 0; 2; 4; 6; 8 |];
      |]
    in
    ignore
      (Sim.run ~sched:(Scheduler.starve ~victims:[ 3; 4 ] ~seed ()) procs)
  done

let per_impl name f =
  List.map
    (fun (iname, m) -> Alcotest.test_case (iname ^ ": " ^ name) `Quick (f m))
    impls

let () =
  Alcotest.run "snapshot"
    [
      ( "sequential",
        per_impl "update/scan" test_sequential
        @ per_impl "scan arg shapes" test_scan_argument_shapes
        @ per_impl "random model" test_sequential_model );
      ( "linearizable",
        per_impl "small histories, exact check" test_concurrent_small
        @ per_impl "large histories, obs check" test_concurrent_large );
      ( "crashes",
        per_impl "crashed updaters" test_crash_tolerance
        @ per_impl "crashed scanner's announcement" test_crashed_scanner_announcement
      );
      ( "sensitivity",
        [ Alcotest.test_case "naive collect caught" `Quick test_naive_is_caught ]
      );
      ("helping", per_impl "borrowed views cover requests" test_borrowed_views_cover_requests);
    ]
