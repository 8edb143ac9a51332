(* Property-based concurrent testing: qcheck generates whole workload
   configurations (vector size, process mix, operation counts, scan widths,
   scheduler family and seed); each case runs a full simulated execution
   and checks the recorded history.  One property per implementation for
   snapshots (observation checker) and one per active set implementation
   (interval-semantics checker). *)

open Psnap

module type SNAP = Snapshot.S

(* A flat algorithm from the stack registry over the simulator. *)
let sim name = List.assoc name Psnap_harness.Scenarios.Sim_stack.bases

module type ASET = Active_set.S

type workload = {
  m : int;
  updaters : int;
  updates : int;
  scanners : int;
  scans : int;
  r : int;
  sched_kind : int;  (** 0 random, 1 bursty, 2 starve-scanners, 3 pct *)
  seed : int;
  crash_clock : int option;
}

let workload_gen =
  QCheck2.Gen.(
    let* m = int_range 1 12 in
    let* updaters = int_range 1 3 in
    let* updates = int_range 1 20 in
    let* scanners = int_range 1 3 in
    let* scans = int_range 1 8 in
    let* r = int_range 1 m in
    let* sched_kind = int_range 0 3 in
    let* seed = int_range 0 10_000 in
    let* crash_clock =
      oneof [ return None; map (fun c -> Some c) (int_range 0 300) ]
    in
    return { m; updaters; updates; scanners; scans; r; sched_kind; seed; crash_clock })

let print_workload w =
  Printf.sprintf
    "{m=%d updaters=%d updates=%d scanners=%d scans=%d r=%d sched=%d seed=%d crash=%s}"
    w.m w.updaters w.updates w.scanners w.scans w.r w.sched_kind w.seed
    (match w.crash_clock with None -> "-" | Some c -> string_of_int c)

let scheduler_of w =
  let scanner_pids =
    List.init w.scanners (fun j -> w.updaters + j)
  in
  let base =
    match w.sched_kind with
    | 0 -> Scheduler.random ~seed:w.seed ()
    | 1 -> Scheduler.bursty ~seed:w.seed ()
    | 2 -> Scheduler.starve ~victims:scanner_pids ~seed:w.seed ()
    | _ -> Scheduler.pct ~seed:w.seed ~expected_steps:500 ()
  in
  match w.crash_clock with
  | None -> base
  | Some at_clock -> Scheduler.with_crash ~pid:0 ~at_clock base

let snapshot_prop ?(mixed = false) name (module S : SNAP) =
  QCheck2.Test.make
    ~name:
      (Printf.sprintf "history valid%s: %s"
         (if mixed then " (mixed roles)" else "")
         name)
    ~count:60 ~print:print_workload workload_gen (fun w ->
      let n = w.updaters + w.scanners in
      let init = Array.init w.m (fun i -> -(i + 1)) in
      let hist = History.create ~now:Sim.mark () in
      let t = S.create ~n (Array.copy init) in
      let do_update h pid k =
        let i = (k + pid) mod w.m in
        let v = (pid * 100_000) + k in
        ignore
          (History.record hist ~pid (Snapshot_spec.Update (i, v)) (fun () ->
               S.update h i v;
               Snapshot_spec.Ack))
      in
      let do_scan h pid =
        let idxs = Array.init w.r (fun k -> (k + pid) mod w.m) in
        let idxs = Array.of_list (List.sort_uniq compare (Array.to_list idxs)) in
        ignore
          (History.record hist ~pid (Snapshot_spec.Scan idxs) (fun () ->
               Snapshot_spec.Vals (S.scan h idxs)))
      in
      let updater pid () =
        let h = S.handle t ~pid in
        for k = 1 to w.updates do
          do_update h pid k
        done
      in
      let scanner pid () =
        let h = S.handle t ~pid in
        for _ = 1 to w.scans do
          do_scan h pid
        done
      in
      (* a process that interleaves its own updates and scans: its scans
         must cope with its own earlier writes being visible everywhere *)
      let mixer pid () =
        let h = S.handle t ~pid in
        for k = 1 to min w.updates 8 do
          do_update h pid k;
          do_scan h pid
        done
      in
      let procs =
        Array.init n (fun pid ->
            if mixed && pid = 0 then mixer pid
            else if pid < w.updaters then updater pid
            else scanner pid)
      in
      ignore (Sim.run ~sched:(scheduler_of w) procs);
      Snapshot_spec.check_observations ~init (History.entries hist) = [])

let aset_prop name (module A : ASET) =
  QCheck2.Test.make ~name:("getSets valid: " ^ name) ~count:60
    ~print:print_workload workload_gen (fun w ->
      let members = w.updaters and observers = w.scanners in
      let n = members + observers in
      let hist = History.create ~now:Sim.mark () in
      let t = A.create ~n () in
      let member pid () =
        let h = A.handle t ~pid in
        for _ = 1 to w.updates do
          ignore
            (History.record hist ~pid Activeset_check.Join (fun () ->
                 A.join h;
                 Activeset_check.Ack));
          ignore
            (History.record hist ~pid Activeset_check.Leave (fun () ->
                 A.leave h;
                 Activeset_check.Ack))
        done
      in
      let observer pid () =
        for _ = 1 to w.scans do
          ignore
            (History.record hist ~pid Activeset_check.Get_set (fun () ->
                 Activeset_check.Set (A.get_set t)))
        done
      in
      let procs =
        Array.init n (fun pid -> if pid < members then member pid else observer pid)
      in
      ignore (Sim.run ~sched:(scheduler_of w) procs);
      Activeset_check.check (History.entries hist) = [])

(* scan results never contain values from the wrong component, under any
   generated workload (redundant with the checker, but self-contained) *)
let values_belong_prop =
  QCheck2.Test.make ~name:"scan values belong to their component" ~count:40
    ~print:print_workload workload_gen (fun w ->
      let module S = Sim_fig3 in
      let n = w.updaters + w.scanners in
      let t = S.create ~n (Array.init w.m (fun i -> -(i + 1))) in
      let ok = ref true in
      let updater pid () =
        let h = S.handle t ~pid in
        for k = 1 to w.updates do
          let i = (k + pid) mod w.m in
          (* value encodes its component *)
          S.update h i ((i * 1_000_000) + (pid * 1_000) + k)
        done
      in
      let scanner pid () =
        let h = S.handle t ~pid in
        let idxs = Array.init w.r (fun k -> (k * 7) mod w.m) in
        let idxs = Array.of_list (List.sort_uniq compare (Array.to_list idxs)) in
        for _ = 1 to w.scans do
          let vs = S.scan h idxs in
          Array.iteri
            (fun k v ->
              if v >= 0 && v / 1_000_000 <> idxs.(k) then ok := false
              else if v < 0 && v <> -(idxs.(k) + 1) then ok := false)
            vs
        done
      in
      let procs =
        Array.init n (fun pid ->
            if pid < w.updaters then updater pid else scanner pid)
      in
      ignore (Sim.run ~sched:(scheduler_of w) procs);
      !ok)

(* the scans' shared sort-and-dedup: the distinct elements in order, the
   input untouched and never aliased by the result *)
let sort_uniq_ok a =
  let before = Array.copy a in
  let got = Snapshot.Idxs.sort_uniq a in
  got = Array.of_list (List.sort_uniq compare (Array.to_list a))
  && a = before
  && (Array.length a = 0 || got != a)

(* small value ranges force duplicates, lengths straddle the
   insertion-sort cutoff *)
let sort_uniq_prop =
  QCheck2.Test.make ~name:"Idxs.sort_uniq = List.sort_uniq compare"
    ~count:500
    ~print:QCheck2.Print.(array int)
    QCheck2.Gen.(
      let* range = int_range 1 100 in
      array_size (int_range 0 80) (int_range (-range) range))
    sort_uniq_ok

(* Long, mostly-ordered inputs, where the sort takes its one-pass
   already-sorted path or falls back to the library sort: a durable
   checkpoint's all-components scan, and the near misses around it. *)
let sort_uniq_long_prop =
  let open QCheck2.Gen in
  let ascending ~step n =
    let* x0 = int_range (-1000) 1000 in
    let+ steps = array_size (return (n - 1)) step in
    let a = Array.make n x0 in
    Array.iteri (fun k d -> a.(k + 1) <- a.(k) + d) steps;
    a
  in
  let shape =
    let* n = int_range 33 2048 in
    oneof
      [
        (* strictly increasing *)
        ascending ~step:(int_range 1 3) n;
        (* non-decreasing, with duplicates *)
        ascending ~step:(int_range 0 2) n;
        (* reverse-sorted *)
        map
          (fun a ->
            let n = Array.length a in
            Array.init n (fun k -> a.(n - 1 - k)))
          (ascending ~step:(int_range 0 2) n);
        (* sorted except the last element *)
        (let* a = ascending ~step:(int_range 0 2) n in
         let+ last = int_range (-2000) (a.(n - 2) - 1) in
         let a = Array.copy a in
         a.(n - 1) <- last;
         a);
      ]
  in
  QCheck2.Test.make ~name:"Idxs.sort_uniq on long, ordered-ish arrays"
    ~count:400 ~print:QCheck2.Print.(array int) shape sort_uniq_ok

let snapshot_impls : (string * (module SNAP)) list =
  [
    ("afek", sim "afek");
    ("fig1", sim "fig1");
    ("fig3", (module Sim_fig3));
    ("fig1-small", sim "fig1-small");
    ("fig3-small", sim "fig3-small");
    ("farray", sim "farray");
    ("nonblocking", sim "nonblocking");
    ("fig1-adaptive", sim "fig1-adaptive");
  ]

let aset_impls : (string * (module ASET)) list =
  [
    ("bounded", (module Sim_aset_bounded));
    ("fai-cas", (module Sim_aset_fai));
    ("fai-cas-small", (module Active_set.Fai_cas_small (Mem.Sim)));
    ("farray-aset", (module Psnap_snapshot.Farray_activeset.Make (Mem.Sim)));
    ("splitter-tree", (module Sim_aset_splitter));
  ]

let () =
  Alcotest.run "props"
    [
      ( "snapshots",
        List.map
          (fun (n, m) -> QCheck_alcotest.to_alcotest (snapshot_prop n m))
          snapshot_impls );
      ( "snapshots-mixed-roles",
        List.map
          (fun (n, m) ->
            QCheck_alcotest.to_alcotest (snapshot_prop ~mixed:true n m))
          snapshot_impls );
      ( "active-sets",
        List.map
          (fun (n, m) -> QCheck_alcotest.to_alcotest (aset_prop n m))
          aset_impls );
      ( "values",
        [ QCheck_alcotest.to_alcotest values_belong_prop ] );
      ( "indices",
        [
          QCheck_alcotest.to_alcotest sort_uniq_prop;
          QCheck_alcotest.to_alcotest sort_uniq_long_prop;
        ] );
    ]
