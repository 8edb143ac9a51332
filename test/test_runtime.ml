(* Tests of the serving layer (lib/runtime): histogram binning and
   percentiles, zipfian sampling, the sharded snapshot's partitioners and
   cross-shard atomicity (exact checker on small histories, observation
   checker under a chaos nemesis), and a loadgen smoke run on real
   domains.  The relaxed sharded mode is also driven to an actual
   linearizability violation, so the validated mode's extra round is
   demonstrably load-bearing. *)

open Psnap
module Hist = Psnap.Runtime.Histogram
module Loadgen = Psnap.Runtime.Loadgen
module M = Psnap_sched.Mem_sim
module Scenario = Psnap_harness.Scenario
module Campaign = Psnap_harness.Campaign

let () = M.set_strict true

let check_bool = Alcotest.(check bool)

let check_int = Alcotest.(check int)

(* ---- histogram: binning ---- *)

let test_small_values_exact () =
  for v = 0 to 63 do
    check_int "identity bucket" v (Hist.index_of v);
    check_int "exact midpoint" v (Hist.value_of (Hist.index_of v))
  done

let test_index_monotone_and_bounded_error () =
  let prev = ref (-1) in
  let v = ref 1 in
  while !v < 1 lsl 50 do
    List.iter
      (fun d ->
        let x = !v + d in
        if x > 0 then begin
          let i = Hist.index_of x in
          check_bool "monotone" true (i >= !prev);
          prev := i;
          let lo, w = Hist.bucket_bounds i in
          check_bool "bucket contains value" true (x >= lo && x < lo + w);
          let mid = Hist.value_of i in
          check_bool "relative error <= 1/32" true
            (abs (mid - x) <= max 1 (x / 32))
        end)
      [ -1; 0; 1; 17 ];
    v := !v * 2;
    prev := -1 (* d=-1 of the next octave is below d=17 of this one *)
  done

let test_empty_histogram () =
  let h = Hist.create () in
  check_int "count" 0 (Hist.count h);
  check_int "p50 of empty" 0 (Hist.percentile h 50.0);
  check_int "min" 0 (Hist.min_value h);
  check_int "max" 0 (Hist.max_value h);
  Alcotest.(check (float 0.0)) "mean" 0.0 (Hist.mean h)

let test_single_sample () =
  let h = Hist.create () in
  Hist.record h 123_456;
  List.iter
    (fun p -> check_int "every percentile is the sample" 123_456 (Hist.percentile h p))
    [ 0.0; 50.0; 99.0; 99.9; 100.0 ];
  check_int "count" 1 (Hist.count h);
  check_int "min" 123_456 (Hist.min_value h);
  check_int "max" 123_456 (Hist.max_value h)

let test_percentiles_uniform () =
  let h = Hist.create () in
  for v = 1 to 1000 do
    Hist.record h v
  done;
  let p50 = Hist.percentile h 50.0 in
  check_bool "p50 near 500" true (abs (p50 - 500) <= 500 / 32 + 1);
  check_int "p100 clamps to max" 1000 (Hist.percentile h 100.0);
  let p99 = Hist.percentile h 99.0 in
  check_bool "p99 near 990" true (abs (p99 - 990) <= 990 / 32 + 1)

let test_merge () =
  let a = Hist.create () and b = Hist.create () and direct = Hist.create () in
  for v = 1 to 2000 do
    Hist.record (if v mod 2 = 0 then a else b) (v * 7);
    Hist.record direct (v * 7)
  done;
  let m = Hist.merge a b in
  check_int "count adds" (Hist.count a + Hist.count b) (Hist.count m);
  check_int "sum adds" (Hist.total direct) (Hist.total m);
  check_int "min" (Hist.min_value direct) (Hist.min_value m);
  check_int "max" (Hist.max_value direct) (Hist.max_value m);
  List.iter
    (fun p ->
      check_int "merged percentile = direct percentile"
        (Hist.percentile direct p) (Hist.percentile m p))
    [ 1.0; 50.0; 90.0; 99.0; 99.9 ]

let test_merge_with_empty_is_identity () =
  let a = Hist.create () in
  List.iter (Hist.record a) [ 3; 5000; 70 ];
  let m = Hist.merge a (Hist.create ()) in
  check_int "count" (Hist.count a) (Hist.count m);
  check_int "p50" (Hist.percentile a 50.0) (Hist.percentile m 50.0);
  check_int "max" (Hist.max_value a) (Hist.max_value m)

let test_merge_of_two_empties () =
  let m = Hist.merge (Hist.create ()) (Hist.create ()) in
  check_int "count" 0 (Hist.count m);
  check_int "total" 0 (Hist.total m);
  check_int "min" 0 (Hist.min_value m);
  check_int "max" 0 (Hist.max_value m);
  check_int "percentile of merged empties" 0 (Hist.percentile m 50.0);
  check_bool "no buckets" true (Hist.buckets m = [])

let test_merge_into_empty_dst () =
  let src = Hist.create () in
  List.iter (Hist.record src) [ 10; 20; 30 ];
  let dst = Hist.create () in
  Hist.merge_into ~dst src;
  check_int "count copied" 3 (Hist.count dst);
  check_int "total copied" 60 (Hist.total dst);
  check_int "min copied" 10 (Hist.min_value dst);
  check_int "max copied" 30 (Hist.max_value dst);
  (* and the other direction: merging an empty src is a no-op *)
  Hist.merge_into ~dst (Hist.create ());
  check_int "empty src leaves dst alone" 3 (Hist.count dst);
  check_int "percentiles intact" (Hist.percentile src 50.0)
    (Hist.percentile dst 50.0)

let test_percentile_clamping () =
  let h = Hist.create () in
  for v = 1 to 100 do
    Hist.record h (v * 1000)
  done;
  (* p outside [0..100] behaves exactly like the clamped endpoint *)
  check_int "p < 0 clamps to p0" (Hist.percentile h 0.0)
    (Hist.percentile h (-5.0));
  check_int "p0 is min" (Hist.min_value h) (Hist.percentile h 0.0);
  check_int "p > 100 clamps to p100" (Hist.percentile h 100.0)
    (Hist.percentile h 250.0);
  check_bool "p100 within the observed range" true
    (Hist.percentile h 100.0 <= Hist.max_value h
    && Hist.percentile h 100.0 >= Hist.min_value h);
  (* clamping on an empty histogram stays 0, not an exception *)
  let e = Hist.create () in
  check_int "empty at p<0" 0 (Hist.percentile e (-1.0));
  check_int "empty at p>100" 0 (Hist.percentile e 101.0)

(* ---- zipfian sampler ---- *)

let freqs ~theta ~n ~samples ~seed =
  let z = Loadgen.Zipf.create ~theta ~n in
  let rng = Random.State.make [| seed |] in
  let counts = Array.make n 0 in
  for _ = 1 to samples do
    let i = Loadgen.Zipf.sample z rng in
    check_bool "sample in range" true (i >= 0 && i < n);
    counts.(i) <- counts.(i) + 1
  done;
  counts

let test_zipf_deterministic () =
  let a = freqs ~theta:0.99 ~n:64 ~samples:2000 ~seed:7 in
  let b = freqs ~theta:0.99 ~n:64 ~samples:2000 ~seed:7 in
  check_bool "same seed, same draws" true (a = b)

let test_zipf_head_mass () =
  (* theta=1, n=100: P(rank 0) = 1/H_100 ~ 0.193 *)
  let c = freqs ~theta:1.0 ~n:100 ~samples:10_000 ~seed:1 in
  check_bool "head rank dominates" true (c.(0) > 1_500);
  check_bool "head >> rank 9" true (c.(0) > 3 * c.(9));
  check_bool "ranks decay" true (c.(0) > c.(1) && c.(1) > c.(10))

let test_zipf_theta_zero_is_uniform () =
  let n = 10 in
  let c = freqs ~theta:0.0 ~n ~samples:10_000 ~seed:2 in
  Array.iter
    (fun k -> check_bool "roughly uniform" true (abs (k - 1000) < 300))
    c

(* ---- sharded snapshot: partitioners (sequential, Atomic backend) ---- *)

let sharded_mc ~shards ~partition ~mode :
    (module Snapshot.S) =
  (module Psnap_runtime.Sharded.Make (Mem.Atomic) (Mc_fig3)
            (struct
              let shards = shards
              let partition = partition
              let mode = mode
            end))

let roundtrip (module S : Snapshot.S) ~m =
  let t = S.create ~n:1 (Array.init m (fun i -> i * 100)) in
  let h = S.handle t ~pid:0 in
  let all = Array.init m Fun.id in
  Alcotest.(check (array int))
    "initial values in index order"
    (Array.init m (fun i -> i * 100))
    (S.scan h all);
  (* overwrite every component through the partitioner, read back both a
     full scan and scattered partial scans *)
  for i = 0 to m - 1 do
    S.update h i ((i * 7) + 1)
  done;
  Alcotest.(check (array int))
    "updated values in index order"
    (Array.init m (fun i -> (i * 7) + 1))
    (S.scan h all);
  let idxs = [| m - 1; 0; m / 2 |] in
  Alcotest.(check (array int))
    "scattered partial scan"
    (Array.map (fun i -> (i * 7) + 1) idxs)
    (S.scan h idxs)

let test_partitioners_roundtrip () =
  List.iter
    (fun partition ->
      (* m=10, shards=3 exercises uneven shard sizes in both layouts *)
      roundtrip (sharded_mc ~shards:3 ~partition ~mode:`Validated) ~m:10;
      roundtrip (sharded_mc ~shards:3 ~partition ~mode:`Relaxed) ~m:10;
      (* more shards than components: clamps to one component per shard *)
      roundtrip (sharded_mc ~shards:8 ~partition ~mode:`Validated) ~m:3)
    [ `Round_robin; `Range ]

(* ---- scan argument shapes through the shard layer ---- *)

let resilient_mc ~shards ~partition : (module Snapshot.S) =
  let module R =
    Psnap_runtime.Resilient.Make (Mem.Atomic) (Mc_fig3) (Mc_fig3)
      (struct
        let shards = shards
        let partition = partition
        let max_rounds = 6
        let backoff_base = 2
        let backoff_max = 16
        let breaker_threshold = 3
        let breaker_cooldown = 4
        let probe_successes = 2
        let heal_quiesce = 64
      end)
  in
  (module R.Snap)

(* m=10 over 3 shards: range blocks [0-3] [4-6] [7-9], round-robin
   stripes i mod 3 *)
let shard_layers =
  List.concat_map
    (fun (pname, partition) ->
      [
        ( "sharded/" ^ pname,
          sharded_mc ~shards:3 ~partition ~mode:`Validated );
        ("resilient/" ^ pname, resilient_mc ~shards:3 ~partition);
      ])
    [ ("round-robin", `Round_robin); ("range", `Range) ]

let test_shard_scan_shapes () =
  let m = 10 in
  List.iter
    (fun (name, (module S : Snapshot.S)) ->
      let model = Array.init m (fun i -> -(i + 1)) in
      let t = S.create ~n:1 (Array.copy model) in
      let h = S.handle t ~pid:0 in
      let check what idxs =
        Alcotest.(check (array int))
          (name ^ ": " ^ what)
          (Array.map (fun i -> model.(i)) idxs)
          (S.scan h idxs)
      in
      let shapes () =
        check "empty" [||];
        check "unsorted" [| 7; 2; 9; 0; 5 |];
        check "duplicates" [| 3; 3; 0; 3; 9; 9 |];
        check "unsorted duplicates in every shard" [| 9; 1; 4; 1; 9; 6; 4 |];
        (* every window: inside one shard, across shard boundaries, and
           wrapping around m *)
        for base = 0 to m - 1 do
          for w = 1 to m do
            check
              (Printf.sprintf "window %d+%d" base w)
              (Array.init w (fun k -> (base + k) mod m))
          done
        done
      in
      shapes ();
      for i = 0 to m - 1 do
        model.(i) <- 100 + i;
        S.update h i model.(i)
      done;
      shapes ();
      (* random updates and random shapes against the model *)
      let st = Random.State.make [| 12 |] in
      for k = 1 to 300 do
        if Random.State.bool st then begin
          let i = Random.State.int st m in
          model.(i) <- 1000 + k;
          S.update h i model.(i)
        end
        else
          check "random shape"
            (Array.init (Random.State.int st 13) (fun _ -> Random.State.int st m))
      done;
      Alcotest.check_raises (name ^ ": index out of range")
        (Invalid_argument
           (if String.starts_with ~prefix:"sharded" name then
              "Sharded.scan: index"
            else "Resilient.scan: index"))
        (fun () -> ignore (S.scan h [| 0; m |])))
    shard_layers

(* ---- sharded snapshot: exact linearizability on small histories ---- *)

let test_sharded_exact_lincheck () =
  let m = 4 in
  let init = Array.init m (fun i -> -(i + 1)) in
  for seed = 0 to 9 do
    let hist = History.create ~now:Sim.mark () in
    Sim.reset_prerun_oids ();
    let t = Sim_sharded_fig3.create ~n:3 (Array.copy init) in
    let updater pid () =
      let h = Sim_sharded_fig3.handle t ~pid in
      for k = 1 to 2 do
        let i = (k + pid) mod m in
        let v = (pid * 100) + k in
        ignore
          (History.record hist ~pid (Snapshot_spec.Update (i, v)) (fun () ->
               Sim_sharded_fig3.update h i v;
               Snapshot_spec.Ack))
      done
    in
    let scanner pid () =
      let h = Sim_sharded_fig3.handle t ~pid in
      (* indices 0 and 3 land in different shards under round-robin x4 *)
      let idxs = [| 0; 3 |] in
      for _ = 1 to 2 do
        ignore
          (History.record hist ~pid (Snapshot_spec.Scan idxs) (fun () ->
               Snapshot_spec.Vals (Sim_sharded_fig3.scan h idxs)))
      done
    in
    ignore
      (Sim.run
         ~sched:(Scheduler.random ~seed ())
         [| updater 0; updater 1; scanner 2 |]);
    check_bool
      (Printf.sprintf "seed %d linearizable (exact checker)" seed)
      true
      (Snapshot_spec.check ~init (History.entries hist))
  done

(* ---- sharded snapshot: chaos-nemesis campaign (observation checker) ---- *)

let test_sharded_linearizable_under_chaos () =
  (* bin/simulate.exe's flat scenario over four validated shards; each
     scan reads the window [0; 3; 6], which spans three of them *)
  let scenario =
    Psnap_harness.Scenarios.flat
      {
        Scenario.default with
        impl = "sharded";
        m = 9;
        r = 3;
        updaters = 2;
        updates = 6;
        scanners = 1;
        scans = 4;
        check = true;
      }
  in
  let restarts = ref 0 in
  for seed = 0 to 24 do
    let o =
      Campaign.run_once scenario
        ~sched:(Scheduler.chaos ~seed ~rate:0.08 ~max_restart_delay:12 ())
    in
    restarts :=
      !restarts
      + Array.fold_left (fun a i -> a + (i - 1)) 0 o.result.incarnations;
    if o.violations <> [] then
      Alcotest.failf "seed %d: %a" seed
        Fmt.(list ~sep:comma Snapshot_spec.pp_violation)
        (List.filteri (fun i _ -> i < 3) o.violations)
  done;
  check_bool "campaign injected restarts" true (!restarts > 0)

(* ---- relaxed mode really is weaker: drive it to a violation ---- *)

let test_relaxed_mode_violates () =
  (* five seeded random runs of the simulate.exe relaxed campaign; only
     checker violations count *)
  let scenario =
    Psnap_harness.Scenarios.flat
      {
        Scenario.default with
        impl = "sharded-relaxed";
        shards = 3;
        m = 32;
        check = true;
      }
  in
  let violations = ref 0 in
  for seed = 0 to 4 do
    let o = Campaign.run_once scenario ~sched:(Scheduler.random ~seed ()) in
    violations := !violations + List.length o.violations
  done;
  check_bool "relaxed cross-shard scans are observably non-atomic" true
    (!violations > 0)

(* ---- E17: the committed ddmin-shrunk witness still reproduces ---- *)

(* `dune runtest` runs from the test directory inside _build (where the
   dune deps clause stages the schedule one level up); `dune exec` runs
   from the workspace root. *)
let e17_witness =
  if Sys.file_exists "schedules/e17-sharded-relaxed.sched" then
    "schedules/e17-sharded-relaxed.sched"
  else "../schedules/e17-sharded-relaxed.sched"

(* the simulate.exe scenario the witness was shrunk against — replay is
   only meaningful against the same program *)
let e17_replay impl =
  let decisions = Shrink.load e17_witness in
  check_bool "witness committed and shrunk" true
    (decisions <> [] && List.length decisions <= 60);
  let scenario =
    Psnap_harness.Scenarios.flat
      { Scenario.default with impl; shards = 3; m = 32; check = true }
  in
  (Campaign.run_once scenario ~sched:(Campaign.replay decisions)).violations

let test_e17_witness_replays () =
  check_bool "shrunk witness still drives a relaxed violation" true
    (e17_replay "sharded-relaxed" <> [])

let test_e17_witness_clean_on_validated () =
  check_bool "validated scans survive the same schedule" true
    (e17_replay "sharded" = [])

(* ---- loadgen smoke on real domains ---- *)

let test_loadgen_smoke () =
  let rep =
    Loadgen.run
      (module Mc_fig3)
      {
        Loadgen.default with
        m = 64;
        r = 4;
        domains = 2;
        warmup_s = 0.02;
        duration_s = 0.1;
      }
  in
  check_bool "did updates" true (rep.Loadgen.updates > 0);
  check_bool "did scans" true (rep.Loadgen.scans > 0);
  check_bool "positive throughput" true (Loadgen.throughput rep > 0.0);
  check_int "histograms match counters" rep.Loadgen.updates
    (Hist.count rep.Loadgen.update_lat)

let test_loadgen_validates_config () =
  let bad cfg =
    match Loadgen.run (module Mc_fig3) cfg with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check_bool "r > m rejected" true
    (bad { Loadgen.default with m = 4; r = 8 });
  check_bool "dedicated roles must sum to domains" true
    (bad
       {
         Loadgen.default with
         domains = 2;
         mix = Loadgen.Dedicated { updaters = 2; scanners = 2 };
       });
  check_bool "open-loop rate must be positive" true
    (bad { Loadgen.default with loop = Loadgen.Open_rate 0.0 })

let () =
  Alcotest.run "runtime"
    [
      ( "histogram",
        [
          Alcotest.test_case "small values exact" `Quick test_small_values_exact;
          Alcotest.test_case "monotone, bounded error" `Quick
            test_index_monotone_and_bounded_error;
          Alcotest.test_case "empty" `Quick test_empty_histogram;
          Alcotest.test_case "single sample" `Quick test_single_sample;
          Alcotest.test_case "uniform percentiles" `Quick
            test_percentiles_uniform;
          Alcotest.test_case "merge = direct" `Quick test_merge;
          Alcotest.test_case "merge with empty" `Quick
            test_merge_with_empty_is_identity;
          Alcotest.test_case "merge of two empties" `Quick
            test_merge_of_two_empties;
          Alcotest.test_case "merge_into with empty dst" `Quick
            test_merge_into_empty_dst;
          Alcotest.test_case "percentile clamping" `Quick
            test_percentile_clamping;
        ] );
      ( "zipf",
        [
          Alcotest.test_case "deterministic" `Quick test_zipf_deterministic;
          Alcotest.test_case "head mass" `Quick test_zipf_head_mass;
          Alcotest.test_case "theta=0 uniform" `Quick
            test_zipf_theta_zero_is_uniform;
        ] );
      ( "sharded",
        [
          Alcotest.test_case "scan shapes vs sequential model" `Quick
            test_shard_scan_shapes;
          Alcotest.test_case "partitioners roundtrip" `Quick
            test_partitioners_roundtrip;
          Alcotest.test_case "exact lincheck, small histories" `Quick
            test_sharded_exact_lincheck;
          Alcotest.test_case "linearizable under chaos (25 seeds)" `Quick
            test_sharded_linearizable_under_chaos;
          Alcotest.test_case "e17 witness replays to a violation" `Quick
            test_e17_witness_replays;
          Alcotest.test_case "e17 witness clean on validated sharded" `Quick
            test_e17_witness_clean_on_validated;
          Alcotest.test_case "relaxed mode violates" `Quick
            test_relaxed_mode_violates;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "smoke (2 domains)" `Quick test_loadgen_smoke;
          Alcotest.test_case "config validation" `Quick
            test_loadgen_validates_config;
        ] );
    ]
