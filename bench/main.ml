(* The benchmark harness: regenerates every experiment table of
   EXPERIMENTS.md.

   Part 1 (E1-E7) runs on the step-counting simulator — machine-independent
   step counts, the cost unit of the paper's theorems.
   Part 2 (E8) measures wall-clock operation latency of the Atomic-backed
   implementations with Bechamel, plus a simple multi-domain throughput
   table.  Run with `dune exec bench/main.exe`. *)

open Psnap
module Table = Psnap_harness.Table
module Experiments = Psnap_harness.Experiments
module Mc = Psnap_harness.Loadgen_cli.Mc_stack

(* The flat multicore implementations, from the stack registry. *)
let flat =
  List.map
    (fun name -> (name, List.assoc name Mc.bases))
    [ "afek"; "fig1"; "fig3"; "farray" ]

(* ---- E8a: bechamel latency of uncontended operations ---- *)

let bechamel_tests () =
  let open Bechamel in
  let m = 256 in
  let r = 8 in
  let idxs = Array.init r (fun k -> k * 31 mod m) in
  let mk_update name (module S : Snapshot.S) =
    let t = S.create ~n:1 (Array.init m (fun i -> i)) in
    let h = S.handle t ~pid:0 in
    let k = ref 0 in
    Test.make ~name:(name ^ "/update")
      (Staged.stage (fun () ->
           incr k;
           S.update h (!k mod m) !k))
  in
  let mk_scan name (module S : Snapshot.S) =
    let t = S.create ~n:1 (Array.init m (fun i -> i)) in
    let h = S.handle t ~pid:0 in
    Test.make ~name:(Printf.sprintf "%s/scan r=%d" name r)
      (Staged.stage (fun () -> ignore (S.scan h idxs)))
  in
  let mk_full name (module S : Snapshot.S) =
    let t = S.create ~n:1 (Array.init m (fun i -> i)) in
    let h = S.handle t ~pid:0 in
    let all = Array.init m (fun i -> i) in
    Test.make ~name:(Printf.sprintf "%s/scan r=m=%d" name m)
      (Staged.stage (fun () -> ignore (S.scan h all)))
  in
  (* the restricted single-writer/single-scanner object (related work) *)
  let module SS = Psnap.Snapshot.Single_scanner (Psnap.Mem.Atomic) in
  let ss_tests =
    let t =
      SS.create ~owner:(Array.make m 0) ~scanner:0 (Array.init m (fun i -> i))
    in
    let h = SS.handle t ~pid:0 in
    let k = ref 0 in
    [
      Test.make ~name:"sw-ss/update"
        (Staged.stage (fun () ->
             incr k;
             SS.update h (!k mod m) !k));
      Test.make
        ~name:(Printf.sprintf "sw-ss/scan r=%d" r)
        (Staged.stage (fun () -> ignore (SS.scan h idxs)));
    ]
  in
  Test.make_grouped ~name:"snapshot"
    (List.concat_map
       (fun (name, m') -> [ mk_update name m'; mk_scan name m'; mk_full name m' ])
       flat
    @ ss_tests)

let run_bechamel () =
  let open Bechamel in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances (bechamel_tests ()) in
  let results = Analyze.all ols (List.hd instances) raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        let ns =
          match Analyze.OLS.estimates ols_result with
          | Some (e :: _) -> e
          | _ -> nan
        in
        let r2 =
          match Analyze.OLS.r_square ols_result with Some r -> r | None -> nan
        in
        [ name; Printf.sprintf "%.1f" ns; Printf.sprintf "%.4f" r2 ] :: acc)
      results []
    |> List.sort compare
  in
  Table.print
    (Table.make
       ~title:
         "E8a  Wall-clock latency, uncontended (Atomic backend, m=256, bechamel OLS)"
       ~header:[ "operation"; "ns/op"; "r^2" ]
       rows)

(* ---- E8b: multi-domain throughput (driven by the runtime loadgen) ---- *)

module Loadgen = Psnap.Runtime.Loadgen

let throughput_row (name, impl) =
  let rep =
    Loadgen.run impl
      {
        Loadgen.default with
        m = 256;
        r = 8;
        domains = 2;
        mix = Loadgen.Dedicated { updaters = 1; scanners = 1 };
        warmup_s = 0.05;
        duration_s = 0.5;
      }
  in
  let rate n =
    if rep.Loadgen.elapsed_s > 0.0 then
      Printf.sprintf "%.0f" (float_of_int n /. rep.Loadgen.elapsed_s)
    else "0"
  in
  [ name; rate rep.Loadgen.updates; rate rep.Loadgen.scans ]

let run_throughput () =
  let impls =
    flat
    @ [
        ( "sharded-4xfig3",
          Mc.sharded ~shards:4 ~partition:`Round_robin ~mode:`Validated );
      ]
  in
  Table.print
    (Table.make
       ~title:
         "E8b  Throughput, 1 updater + 1 scanner domain, 0.5 s (single-core host: domains time-slice)"
       ~header:[ "impl"; "updates/s"; "scans/s (r=8)" ]
       (List.map throughput_row impls))

let () =
  print_endline "Partial snapshot objects (SPAA'08) - experiment suite";
  print_endline "Step counts below are exact shared-memory accesses in the";
  print_endline "simulator; see EXPERIMENTS.md for the paper-vs-measured discussion.";
  List.iter Table.print (Experiments.all ());
  run_bechamel ();
  run_throughput ()
