(** The experiment suite of EXPERIMENTS.md: one runner per table.

    The paper (SPAA'08) proves step-complexity bounds instead of reporting
    measurements, so each experiment validates a theorem's bound and shape
    on the step-counting simulator: measured worst/mean steps per operation
    against the bound evaluated with explicit constants, under seeded random
    and adversarial schedules.  All experiments are deterministic (fixed
    seeds). *)

open Psnap

type runner = ?seeds:int -> unit -> Table.t

let default_seeds = 12

(* A flat algorithm from the simulator's stack registry. *)
let sim name = List.assoc name Scenarios.Sim_stack.bases

(* ---- E1: Figure 1 + Theorem 1 ---- *)

(* scan steps <= announce(1) + join(1) + collects * r + leave(1), with
   collects <= 2*Cu + 1 (Cu = update operations overlapping the scan);
   update steps <= getSet(n) + Cs reads + collects * |args| with
   |args| <= Cs * rmax. *)
let e1 ?(seeds = default_seeds) () =
  let m = 32 in
  let rows =
    List.concat_map
      (fun updaters ->
        List.map
          (fun r ->
            let cfg =
              {
                Workload.impl = sim "fig1";
                m;
                updaters;
                updates = 20;
                scanners = 2;
                scans = 4;
                r;
                sched =
                  (fun seed ->
                    Scheduler.starve ~victims:[ updaters; updaters + 1 ] ~seed ());
                seeds;
                update_range = None;
                scan_idxs = None;
              }
            in
            let o = Workload.run cfg in
            let n = updaters + 2 in
            let cu = Workload.max_overlap o ~around:"scan" ~of_:"update" in
            let cs = Workload.max_point_contention o "scan" in
            let scan_worst = Workload.worst_steps o "scan" in
            let scan_bound = (((2 * cu) + 1) * r) + 3 in
            let upd_worst = Workload.worst_steps o "update" in
            let cu_u = Workload.max_overlap o ~around:"update" ~of_:"update" in
            let upd_bound = n + cs + (((2 * cu_u) + 1) * cs * r) + 1 in
            [
              Table.i updaters;
              Table.i r;
              Table.i cu;
              Table.i cs;
              Table.i scan_worst;
              Table.i scan_bound;
              Table.f2 (float_of_int scan_worst /. float_of_int scan_bound);
              Table.i upd_worst;
              Table.i upd_bound;
              Table.f2 (float_of_int upd_worst /. float_of_int upd_bound);
            ])
          [ 2; 8 ])
      [ 1; 2; 4; 8 ]
  in
  Table.make ~title:"E1  Figure 1 (registers) vs Theorem 1 bounds"
    ~header:
      [
        "updaters";
        "r";
        "Cu";
        "Cs";
        "scan worst";
        "scan bound";
        "ratio";
        "upd worst";
        "upd bound";
        "ratio";
      ]
    rows

(* ---- E2: Figure 2 + Theorem 2 ---- *)

let e2 ?(seeds = default_seeds) () =
  let module A = Sim_aset_fai in
  let run_cfg ~members ~cycles ~observers ~getsets seed =
    let rec_ = Metrics.create () in
    let t = A.create ~n:(members + observers) () in
    let member pid () =
      let h = A.handle t ~pid in
      for _ = 1 to cycles do
        Metrics.measure rec_ ~pid ~kind:"join" (fun () -> A.join h);
        Metrics.measure rec_ ~pid ~kind:"leave" (fun () -> A.leave h)
      done
    in
    let observer pid () =
      for _ = 1 to getsets do
        Metrics.measure rec_ ~pid ~kind:"getset" (fun () ->
            ignore (A.get_set t))
      done
    in
    let procs =
      Array.init (members + observers) (fun pid ->
          if pid < members then member pid else observer pid)
    in
    ignore (Sim.run ~sched:(Scheduler.random ~seed ()) procs);
    Metrics.samples rec_
  in
  let rows =
    List.map
      (fun members ->
        let runs =
          List.init seeds (fun seed ->
              run_cfg ~members ~cycles:8 ~observers:2 ~getsets:6 seed)
        in
        let worst kind =
          List.fold_left
            (fun acc samples ->
              max acc
                (Metrics.max_steps
                   (List.filter (fun (s : Metrics.sample) -> s.kind = kind) samples)))
            0 runs
        in
        let mean kind =
          let all =
            List.concat_map
              (List.filter (fun (s : Metrics.sample) -> s.kind = kind))
              runs
          in
          Metrics.mean_steps all
        in
        let cbar =
          List.fold_left
            (fun acc samples -> max acc (Metrics.max_interval_contention samples))
            0 runs
        in
        [
          Table.i members;
          Table.i (worst "join");
          Table.i (worst "leave");
          Table.f1 (mean "getset");
          Table.i (worst "getset");
          Table.i cbar;
        ])
      [ 2; 4; 8; 16 ]
  in
  Table.make
    ~title:
      "E2  Figure 2 active set vs Theorem 2 (join/leave O(1) worst case; getSet amortized O(C))"
    ~header:
      [ "members"; "join worst"; "leave worst"; "getSet mean"; "getSet worst"; "C" ]
    rows

(* ---- E3: Figure 3 + Theorem 3 ---- *)

let fig3_cfg ~m ~updaters ~r ~seeds =
  {
    Workload.impl = sim "fig3";
    m;
    updaters;
    updates = 30;
    scanners = 2;
    scans = 4;
    r;
    sched =
      (fun seed -> Scheduler.starve ~victims:[ updaters; updaters + 1 ] ~seed ());
    seeds;
    update_range = None;
    scan_idxs = None;
  }

let e3a ?(seeds = default_seeds) () =
  let rows =
    List.map
      (fun r ->
        let o = Workload.run (fig3_cfg ~m:64 ~updaters:4 ~r ~seeds) in
        let worst = Workload.worst_steps o "scan" in
        let bound = (((2 * r) + 1) * r) + 7 in
        [
          Table.i r;
          Table.i (Workload.worst_collects o);
          Table.i ((2 * r) + 1);
          Table.i worst;
          Table.i bound;
          Table.f2 (float_of_int worst /. float_of_int bound);
        ])
      [ 1; 2; 4; 8; 16 ]
  in
  Table.make ~title:"E3a  Figure 3 scans: worst case O(r^2), 2r+1 collects"
    ~header:
      [ "r"; "collects worst"; "2r+1"; "scan worst"; "bound (2r+1)r+7"; "ratio" ]
    rows

let e3b ?(seeds = default_seeds) () =
  let r = 4 in
  let rows =
    List.map
      (fun m ->
        let o = Workload.run (fig3_cfg ~m ~updaters:4 ~r ~seeds) in
        [
          Table.i m;
          Table.i (Workload.worst_steps o "scan");
          Table.f1 (Workload.mean_steps o "scan");
          Table.i ((((2 * r) + 1) * r) + 7);
        ])
      [ 16; 64; 256; 1024 ]
  in
  Table.make ~title:"E3b  Figure 3 scans are local: cost independent of m (r=4)"
    ~header:[ "m"; "scan worst"; "scan mean"; "bound" ] rows

let e3c ?(seeds = default_seeds) () =
  let r = 4 in
  let rows =
    List.map
      (fun updaters ->
        let o = Workload.run (fig3_cfg ~m:64 ~updaters ~r ~seeds) in
        let cs = Workload.max_point_contention o "scan" in
        let upd_worst = Workload.worst_steps o "update" in
        let upd_mean = Workload.mean_steps o "update" in
        (* amortized bound per update: O(Cs^2 * rmax^2); constants: embedded
           scan (2*Cs*r+1 collects) * (Cs*r reads) + getSet + cas + read *)
        let bound = (((2 * cs * r) + 1) * (cs * r)) + 20 in
        [
          Table.i updaters;
          Table.i (Workload.worst_steps o "scan");
          Table.i ((((2 * r) + 1) * r) + 7);
          Table.f1 upd_mean;
          Table.i upd_worst;
          Table.i bound;
        ])
      [ 1; 2; 4; 8 ]
  in
  Table.make
    ~title:
      "E3c  Figure 3: scan cost contention-independent; updates within amortized bound (r=4)"
    ~header:
      [
        "updaters";
        "scan worst";
        "scan bound";
        "upd mean";
        "upd worst";
        "upd bound";
      ]
    rows

(* ---- E4: locality across implementations ---- *)

let e4 ?(seeds = default_seeds) () =
  let r = 8 in
  let impls = List.map sim [ "afek"; "fig1"; "fig3" ] in
  let row_of_m m =
    Table.i m
    :: List.concat_map
         (fun impl ->
           let cfg =
             {
               Workload.impl;
               m;
               updaters = 2;
               updates = 15;
               scanners = 2;
               scans = 3;
               r;
               sched = (fun seed -> Scheduler.random ~seed ());
               seeds;
               update_range = None;
               scan_idxs = None;
             }
           in
           let o = Workload.run cfg in
           [ Table.f1 (Workload.mean_steps o "scan") ])
         impls
  in
  let rows = List.map row_of_m [ 16; 64; 256; 1024 ] in
  Table.make
    ~title:
      "E4  Partial scan cost vs m (r=8): full-snapshot baseline grows, Figures 1/3 stay flat"
    ~header:
      ("m" :: List.map (fun (module S : Snapshot.S) -> S.name ^ " scan mean") impls)
    rows

(* ---- E5: crossover when r approaches m ---- *)

let e5 ?(seeds = default_seeds) () =
  let m = 64 in
  let row_of_r r =
    (* Worst case uses the rotation adversary with every update targeted at
       the scanned prefix [0..r-1], so scans cannot finish early on a quiet
       component set. *)
    let run impl ~adversarial =
      let cfg =
        {
          Workload.impl;
          m;
          updaters = 2;
          updates = (if adversarial then 60 else 15);
          scanners = 1;
          scans = 3;
          r;
          sched =
            (if adversarial then fun _seed ->
               Scheduler.rotation ~victims:[ 2 ] ~burst:50 ~victim_steps:r ()
             else fun seed -> Scheduler.random ~seed ());
          seeds = (if adversarial then 1 else seeds);
          update_range = (if adversarial then Some r else None);
          scan_idxs = (if adversarial then Some (Array.init r (fun i -> i)) else None);
        }
      in
      Workload.run cfg
    in
    let fig3_rand = run (sim "fig3") ~adversarial:false in
    let afek_rand = run (sim "afek") ~adversarial:false in
    let fig3_worst = run (sim "fig3") ~adversarial:true in
    let afek_worst = run (sim "afek") ~adversarial:true in
    [
      Table.i r;
      Table.f1 (Workload.mean_steps fig3_rand "scan");
      Table.f1 (Workload.mean_steps afek_rand "scan");
      Table.i (Workload.worst_steps fig3_worst "scan");
      Table.i (Workload.worst_steps afek_worst "scan");
    ]
  in
  let rows = List.map row_of_r [ 4; 8; 16; 32; 64 ] in
  Table.make
    ~title:
      "E5  Crossover, m=64: partial (fig3, O(r^2)) vs full-snapshot projection (afek, O(m) per collect)"
    ~header:
      [
        "r";
        "fig3 mean";
        "afek mean";
        "fig3 worst (adversary)";
        "afek worst (adversary)";
      ]
    rows

(* ---- E6: the helping adversary — collects under an update storm ---- *)

let e6 ?seeds () =
  ignore seeds;
  (* All m = r components are scanned and every update hits one of them, so
     no scan can terminate early on a quiet component.  The adversary
     alternates "let the next updater (round-robin) finish exactly one
     update" with "let the scanner perform one collect (r steps)".  Each
     collect then observes a change by a different process: Figure 1's
     per-process rule needs about one collect per updater before some
     process is seen moving twice, while Figure 3's per-location rule stays
     capped at 2r+1 regardless of how many processes the adversary owns. *)
  let r = 4 in
  let m = r in
  let run_one impl ~updaters =
    let (module S : Snapshot.S) = impl in
    let t = S.create ~n:(updaters + 1) (Array.init m (fun i -> -i - 1)) in
    let hs = Array.init (updaters + 1) (fun pid -> S.handle t ~pid) in
    let idxs = Array.init r (fun i -> i) in
    let done_counts = Array.make updaters 0 in
    let worst = ref 0 in
    let procs =
      Array.init (updaters + 1) (fun pid ->
          if pid < updaters then fun () ->
            for k = 1 to 60 do
              S.update hs.(pid) ((k + pid) mod m) ((pid * 1_000_000) + k);
              done_counts.(pid) <- done_counts.(pid) + 1
            done
          else fun () ->
            for _ = 1 to 4 do
              ignore (S.scan hs.(pid) idxs);
              worst := max !worst (S.last_scan_collects hs.(pid))
            done)
    in
    let scanner = updaters in
    (* adversary state: Some (u, base) = running updater u until its counter
       exceeds base; None with budget = scanner collect in progress *)
    let target = ref None in
    let scan_budget = ref 0 in
    let next_u = ref 0 in
    let pick (view : Scheduler.view) =
      let runnable = view.Scheduler.runnable in
      let mem p = Array.exists (fun q -> q = p) runnable in
      let rec go guard =
        if guard = 0 then Scheduler.Run runnable.(0)
        else
          match !target with
          | Some (u, base) ->
            if mem u && done_counts.(u) <= base then Scheduler.Run u
            else begin
              target := None;
              scan_budget := r;
              go (guard - 1)
            end
          | None ->
            if !scan_budget > 0 && mem scanner then begin
              decr scan_budget;
              Scheduler.Run scanner
            end
            else begin
              (* pick the next live updater, if any *)
              let live =
                List.filter (fun u -> mem u) (List.init updaters (fun u -> u))
              in
              match live with
              | [] -> Scheduler.Run scanner
              | _ ->
                let u = List.nth live (!next_u mod List.length live) in
                incr next_u;
                target := Some (u, done_counts.(u));
                go (guard - 1)
            end
      in
      go 4
    in
    ignore (Sim.run ~sched:{ Scheduler.name = "one-update-per-collect"; pick } procs);
    !worst
  in
  let row_of_updaters updaters =
    [
      Table.i updaters;
      Table.i (run_one (sim "fig1") ~updaters);
      Table.i (run_one (sim "fig3") ~updaters);
      Table.i ((2 * r) + 1);
    ]
  in
  let rows = List.map row_of_updaters [ 1; 2; 4; 8; 16 ] in
  Table.make
    ~title:
      "E6  Collects per scan under an update storm (r=4): Figure 1 grows with contention, Figure 3 capped at 2r+1"
    ~header:
      [ "updaters"; "fig1 worst collects"; "fig3 worst collects"; "fig3 cap" ]
    rows

(* ---- E7: active set adaptivity — Figure 2 vs the bounded baseline ---- *)

let e7 ?(seeds = default_seeds) () =
  ignore seeds;
  let module B = Sim_aset_bounded in
  let module F = Sim_aset_fai in
  (* 2 processes churn [cycles] times and one observer measures a getSet
     after the churn is published; the bounded baseline pays n steps, the
     Figure 2 object pays only for live slots. *)
  let measure_bounded ~n ~cycles =
    let steps = ref 0 in
    let procs =
      [|
        (fun () ->
          let t = B.create ~n () in
          let h0 = B.handle t ~pid:0 and h1 = B.handle t ~pid:1 in
          for _ = 1 to cycles do
            B.join h0;
            B.leave h0;
            B.join h1;
            B.leave h1
          done;
          ignore (B.get_set t);
          let s0 = Sim.steps_of 0 in
          ignore (B.get_set t);
          steps := Sim.steps_of 0 - s0);
      |]
    in
    ignore (Sim.run ~sched:(Scheduler.round_robin ()) procs);
    !steps
  in
  let measure_fai ~n ~cycles =
    ignore n;
    let steps = ref 0 in
    let procs =
      [|
        (fun () ->
          let t = F.create ~n () in
          let h0 = F.handle t ~pid:0 and h1 = F.handle t ~pid:1 in
          for _ = 1 to cycles do
            F.join h0;
            F.leave h0;
            F.join h1;
            F.leave h1
          done;
          ignore (F.get_set t);
          let s0 = Sim.steps_of 0 in
          ignore (F.get_set t);
          steps := Sim.steps_of 0 - s0);
      |]
    in
    ignore (Sim.run ~sched:(Scheduler.round_robin ()) procs);
    !steps
  in
  let measure_splitter ~n ~cycles =
    let module Sp = Sim_aset_splitter in
    ignore n;
    let steps = ref 0 in
    let procs =
      [|
        (fun () ->
          let t = Sp.create ~n () in
          let h0 = Sp.handle t ~pid:0 and h1 = Sp.handle t ~pid:1 in
          for _ = 1 to cycles do
            Sp.join h0;
            Sp.leave h0;
            Sp.join h1;
            Sp.leave h1
          done;
          ignore (Sp.get_set t);
          let s0 = Sim.steps_of 0 in
          ignore (Sp.get_set t);
          steps := Sim.steps_of 0 - s0);
      |]
    in
    ignore (Sim.run ~sched:(Scheduler.round_robin ()) procs);
    !steps
  in
  let rows =
    List.map
      (fun n ->
        let cycles = n / 2 in
        [
          Table.i n;
          Table.i cycles;
          Table.i (measure_bounded ~n ~cycles);
          Table.i (measure_fai ~n ~cycles);
          Table.i (measure_splitter ~n ~cycles);
        ])
      [ 4; 16; 64; 256 ]
  in
  Table.make
    ~title:
      "E7  getSet cost after churn: bounded baseline pays Theta(n); Figure 2 and the [3]-style splitter tree adapt"
    ~header:
      [ "n"; "churn cycles"; "bounded getSet"; "fig2 getSet"; "splitter getSet" ]
    rows

(* ---- E9: related work — the f-array trade-off (Section 5) ---- *)

let e9 ?(seeds = default_seeds) () =
  let r = 8 in
  let rows =
    List.map
      (fun m ->
        let run impl =
          Workload.run
            {
              Workload.impl;
              m;
              updaters = 2;
              updates = 15;
              scanners = 2;
              scans = 3;
              r;
              sched = (fun seed -> Scheduler.random ~seed ());
              seeds;
              update_range = None;
              scan_idxs = None;
            }
        in
        let fa = run (sim "farray") and f3 = run (sim "fig3") in
        [
          Table.i m;
          Table.f1 (Workload.mean_steps fa "scan");
          Table.f1 (Workload.mean_steps fa "update");
          Table.f1 (Workload.mean_steps f3 "scan");
          Table.f1 (Workload.mean_steps f3 "update");
        ])
      [ 16; 64; 256; 1024 ]
  in
  Table.make
    ~title:
      "E9  Related work: f-array (O(1) scans, Theta(log m) large-object updates) vs Figure 3 (r=8)"
    ~header:
      [
        "m";
        "farray scan";
        "farray update";
        "fig3 scan";
        "fig3 update";
      ]
    rows

(* ---- E10: small-registers ablation (remarks after Theorems 1 and 3) ---- *)

let e10 ?(seeds = default_seeds) () =
  let m = 32 and r = 8 in
  let run impl =
    Workload.run
      {
        Workload.impl;
        m;
        updaters = 4;
        updates = 25;
        scanners = 2;
        scans = 4;
        r;
        sched = (fun seed -> Scheduler.starve ~victims:[ 4; 5 ] ~seed ());
        seeds;
        update_range = None;
        scan_idxs = None;
      }
  in
  let row name o =
    [
      name;
      Table.f1 (Workload.mean_steps o "scan");
      Table.i (Workload.worst_steps o "scan");
      Table.f1 (Workload.mean_steps o "update");
      Table.i (Workload.worst_steps o "update");
    ]
  in
  Table.make
    ~title:
      "E10  Small-registers ablation: views in one large cell vs one register per pair (m=32, r=8, starved scanners)"
    ~header:[ "variant"; "scan mean"; "scan worst"; "upd mean"; "upd worst" ]
    [
      row "fig1 large" (run (sim "fig1"));
      row "fig1 small" (run (sim "fig1-small"));
      row "fig3 large" (run (sim "fig3"));
      row "fig3 small" (run (sim "fig3-small"));
    ]

(* ---- E11: active set ablation inside Figure 3 ---- *)

let e11 ?(seeds = default_seeds) () =
  let m = 32 and r = 4 in
  let rows =
    List.map
      (fun updaters ->
        let run impl =
          Workload.run
            {
              Workload.impl;
              m;
              updaters;
              updates = 15;
              scanners = 2;
              scans = 4;
              r;
              sched = (fun seed -> Scheduler.random ~seed ());
              seeds;
              update_range = None;
              scan_idxs = None;
            }
        in
        let fai = run (sim "fig3")
        and bounded = run (sim "fig3-bounded-aset") in
        [
          Table.i (updaters + 2);
          Table.f1 (Workload.mean_steps fai "update");
          Table.f1 (Workload.mean_steps bounded "update");
          Table.f1 (Workload.mean_steps fai "scan");
          Table.f1 (Workload.mean_steps bounded "scan");
        ])
      [ 2; 8; 32; 64 ]
  in
  Table.make
    ~title:
      "E11  Ablation: Figure 3 with the Figure 2 active set vs the Theta(n)-getSet bounded active set"
    ~header:
      [
        "processes";
        "upd mean (fig2 aset)";
        "upd mean (bounded aset)";
        "scan mean (fig2 aset)";
        "scan mean (bounded aset)";
      ]
    rows

(* ---- E12: the restricted single-writer/single-scanner model ---- *)

let e12 ?seeds () =
  ignore seeds;
  let module SS = Sim_single_scanner in
  let m = 64 in
  let measure r =
    let owner = Array.init m (fun i -> i mod 2) in
    let t = SS.create ~owner ~scanner:2 (Array.init m (fun i -> -i - 1)) in
    let rec_ = Metrics.create () in
    let writer pid () =
      let h = SS.handle t ~pid in
      for k = 1 to 30 do
        let i = ((2 * k) mod m) + pid in
        Metrics.measure rec_ ~pid ~kind:"update" (fun () ->
            SS.update h i ((pid * 100_000) + k))
      done
    in
    let scanner () =
      let h = SS.handle t ~pid:2 in
      let idxs = Array.init r (fun k -> k * (m / r)) in
      for _ = 1 to 8 do
        Metrics.measure rec_ ~pid:2 ~kind:"scan" (fun () ->
            ignore (SS.scan h idxs))
      done
    in
    ignore
      (Sim.run
         ~sched:(Scheduler.starve ~victims:[ 2 ] ~seed:3 ())
         [| writer 0; writer 1; scanner |]);
    ( Metrics.max_steps (Metrics.by_kind rec_ "update"),
      Metrics.max_steps (Metrics.by_kind rec_ "scan") )
  in
  let fig3 r =
    let o =
      Workload.run
        {
          Workload.impl = sim "fig3";
          m;
          updaters = 2;
          updates = 30;
          scanners = 1;
          scans = 8;
          r;
          sched = (fun _ -> Scheduler.starve ~victims:[ 2 ] ~seed:3 ());
          seeds = 1;
          update_range = None;
          scan_idxs = None;
        }
    in
    (Workload.worst_steps o "update", Workload.worst_steps o "scan")
  in
  let rows =
    List.map
      (fun r ->
        let ss_u, ss_s = measure r in
        let f3_u, f3_s = fig3 r in
        [ Table.i r; Table.i ss_u; Table.i ss_s; Table.i f3_u; Table.i f3_s ])
      [ 2; 8; 32 ]
  in
  Table.make
    ~title:
      "E12  Restricted model (related work [22]): single-writer/single-scanner O(1) updates and r+1-step scans vs the unrestricted Figure 3"
    ~header:
      [
        "r";
        "sw/ss upd worst";
        "sw/ss scan worst";
        "fig3 upd worst";
        "fig3 scan worst";
      ]
    rows

(* ---- E13: space — the paper's acknowledged open problem (Section 6) ---- *)

let e13 ?seeds () =
  ignore seeds;
  let module F = Sim_aset_fai in
  let module B = Sim_aset_bounded in
  let churn_allocs create join leave getset ~cycles =
    let out = ref 0 in
    ignore
      (Sim.run ~sched:(Scheduler.round_robin ())
         [|
           (fun () ->
             Psnap_sched.Mem_sim.reset_allocations ();
             let t, h0, h1 = create () in
             let base = Psnap_sched.Mem_sim.allocations () in
             for _ = 1 to cycles do
               join h0;
               leave h0;
               join h1;
               leave h1;
               getset t
             done;
             out := Psnap_sched.Mem_sim.allocations () - base);
         |]);
    !out
  in
  let fai ~cycles =
    churn_allocs
      (fun () ->
        let t = F.create ~n:2 () in
        (t, F.handle t ~pid:0, F.handle t ~pid:1))
      F.join F.leave
      (fun t -> ignore (F.get_set t))
      ~cycles
  in
  let bounded ~cycles =
    churn_allocs
      (fun () ->
        let t = B.create ~n:2 () in
        (t, B.handle t ~pid:0, B.handle t ~pid:1))
      B.join B.leave
      (fun t -> ignore (B.get_set t))
      ~cycles
  in
  let rows =
    List.map
      (fun cycles ->
        [
          Table.i cycles;
          Table.i (fai ~cycles);
          Table.i (bounded ~cycles);
        ])
      [ 16; 64; 256; 1024 ]
  in
  Table.make
    ~title:
      "E13  Space: base objects allocated during churn — Figure 2's register use grows with the number of operations (the paper's open problem, Section 6); the bounded baseline allocates nothing"
    ~header:[ "join/leave cycles x2"; "fig2 allocations"; "bounded allocations" ]
    rows

let all ?seeds () =
  [
    e1 ?seeds ();
    e2 ?seeds ();
    e3a ?seeds ();
    e3b ?seeds ();
    e3c ?seeds ();
    e4 ?seeds ();
    e5 ?seeds ();
    e6 ?seeds ();
    e7 ?seeds ();
    e9 ?seeds ();
    e10 ?seeds ();
    e11 ?seeds ();
    e12 ?seeds ();
    e13 ?seeds ();
  ]

let by_name =
  [
    ("e1", e1);
    ("e2", e2);
    ("e3a", e3a);
    ("e3b", e3b);
    ("e3c", e3c);
    ("e4", e4);
    ("e5", e5);
    ("e6", e6);
    ("e7", e7);
    ("e9", e9);
    ("e10", e10);
    ("e11", e11);
    ("e12", e12);
    ("e13", e13);
  ]
