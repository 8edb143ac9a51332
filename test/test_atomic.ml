(* Tests of the multicore (Atomic) backend with real OCaml domains.  Wall
   clock replaces the step counter for history timestamps; the observation
   checker validates linearizability of the recorded histories.  (On a
   single-core host domains still interleave preemptively, which is enough
   to exercise the concurrent paths.) *)

open Psnap

module type SNAP = Snapshot.S

(* A flat algorithm from the stack registry over real atomics. *)
let mc name = List.assoc name Psnap_harness.Loadgen_cli.Mc_stack.bases

let impls : (string * (module SNAP)) list =
  [
    ("afek-full", mc "afek");
    ("fig1-reg", mc "fig1");
    ("fig3-cas", (module Mc_fig3));
    ("fig1-adaptive", mc "fig1-adaptive");
    ("fig1-small", mc "fig1-small");
    ("fig3-small", mc "fig3-small");
    ("farray", mc "farray");
  ]

(* monotonic timestamps across domains *)
let make_now () =
  let c = Atomic.make 0 in
  fun () -> Atomic.fetch_and_add c 1

let test_sequential (module S : SNAP) () =
  let t = S.create ~n:1 [| 1; 2; 3; 4 |] in
  let h = S.handle t ~pid:0 in
  Alcotest.(check (array int)) "initial" [| 2; 4 |] (S.scan h [| 1; 3 |]);
  S.update h 1 20;
  S.update h 3 40;
  Alcotest.(check (array int)) "updated" [| 20; 40 |] (S.scan h [| 1; 3 |])

let test_domains_linearizable (module S : SNAP) () =
  let m = 6 in
  let init = Array.init m (fun i -> -(i + 1)) in
  let now = make_now () in
  let t = S.create ~n:4 (Array.copy init) in
  (* per-domain histories merged afterwards (the recorder is not
     thread-safe; timestamps are globally ordered) *)
  let hists = Array.init 4 (fun _ -> History.create ~now ()) in
  let updater pid () =
    let h = S.handle t ~pid in
    for k = 1 to 300 do
      let i = (k + pid) mod m in
      let v = (pid * 10_000) + k in
      ignore
        (History.record hists.(pid) ~pid (Snapshot_spec.Update (i, v))
           (fun () ->
             S.update h i v;
             Snapshot_spec.Ack))
    done
  in
  let scanner pid idxs () =
    let h = S.handle t ~pid in
    for _ = 1 to 100 do
      ignore
        (History.record hists.(pid) ~pid (Snapshot_spec.Scan idxs) (fun () ->
             Snapshot_spec.Vals (S.scan h idxs)))
    done
  in
  let domains =
    [
      Domain.spawn (updater 0);
      Domain.spawn (updater 1);
      Domain.spawn (scanner 2 [| 0; 2; 4 |]);
      Domain.spawn (scanner 3 [| 1; 2; 5 |]);
    ]
  in
  List.iter Domain.join domains;
  let entries =
    Array.to_list hists |> List.concat_map History.entries
  in
  match Snapshot_spec.check_observations ~init entries with
  | [] -> ()
  | v :: _ -> Alcotest.failf "violation: %a" Snapshot_spec.pp_violation v

let test_splitter_domains () =
  (* concurrent first-time acquisitions on real atomics: all six processes
     must end up with distinct owned nodes and be visible *)
  let module Sp = Active_set.Splitter_tree (Mem.Atomic) in
  for _ = 1 to 20 do
    let t = Sp.create ~n:6 () in
    let domains =
      List.init 6 (fun pid ->
          Domain.spawn (fun () ->
              let h = Sp.handle t ~pid in
              Sp.join h))
    in
    List.iter Domain.join domains;
    Alcotest.(check (list int))
      "all six acquired" [ 0; 1; 2; 3; 4; 5 ] (Sp.get_set t)
  done

let test_activeset_domains () =
  let module A = Mc_aset_fai in
  let a = A.create ~n:4 () in
  let stop = Atomic.make false in
  let ok = Atomic.make true in
  let member pid () =
    let h = A.handle a ~pid in
    for _ = 1 to 500 do
      A.join h;
      if not (List.mem pid (A.get_set a)) then Atomic.set ok false;
      A.leave h
    done
  in
  let observer () =
    while not (Atomic.get stop) do
      let s = A.get_set a in
      if List.exists (fun p -> p < 0 || p > 3) s then Atomic.set ok false
    done
  in
  let obs = Domain.spawn observer in
  let members = List.init 3 (fun pid -> Domain.spawn (member pid)) in
  List.iter Domain.join members;
  Atomic.set stop true;
  Domain.join obs;
  Alcotest.(check bool) "self visible while joined; members sane" true
    (Atomic.get ok)

let test_fig3_collect_bound_atomic () =
  (* The 2r+1 collect bound is schedule-independent, so it must hold under
     preemptive domain scheduling too. *)
  let module S = Mc_fig3 in
  let m = 8 in
  let t = S.create ~n:3 (Array.init m (fun i -> -(i + 1))) in
  let stop = Atomic.make false in
  let upd pid () =
    let h = S.handle t ~pid in
    let k = ref 0 in
    while not (Atomic.get stop) do
      incr k;
      S.update h (!k mod m) ((pid * 1_000_000) + !k)
    done
  in
  let u0 = Domain.spawn (upd 0) and u1 = Domain.spawn (upd 1) in
  let h = S.handle t ~pid:2 in
  let worst = ref 0 in
  let r = 3 in
  for _ = 1 to 200 do
    ignore (S.scan h [| 1; 4; 6 |]);
    worst := max !worst (S.last_scan_collects h)
  done;
  Atomic.set stop true;
  Domain.join u0;
  Domain.join u1;
  Alcotest.(check bool)
    (Printf.sprintf "collects %d <= %d" !worst ((2 * r) + 1))
    true
    (!worst <= (2 * r) + 1)

let per_impl name f =
  List.map
    (fun (iname, m) -> Alcotest.test_case (iname ^ ": " ^ name) `Quick (f m))
    impls

let () =
  Alcotest.run "atomic-backend"
    [
      ("sequential", per_impl "basic" test_sequential);
      ("domains", per_impl "2 updaters + 2 scanners" test_domains_linearizable);
      ( "activeset",
        [
          Alcotest.test_case "members under churn" `Quick test_activeset_domains;
          Alcotest.test_case "splitter acquisitions" `Quick
            test_splitter_domains;
        ] );
      ( "fig3",
        [
          Alcotest.test_case "collect bound under preemption" `Quick
            test_fig3_collect_bound_atomic;
        ] );
    ]
