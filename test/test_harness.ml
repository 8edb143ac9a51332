(* Tests of the experiment harness: workload runner, contention measures
   (against brute force), tables, and experiment-table well-formedness. *)

open Psnap
module Table = Psnap_harness.Table
module Workload = Psnap_harness.Workload
module Experiments = Psnap_harness.Experiments

let check_int = Alcotest.(check int)

(* ---- workload runner ---- *)

let base_cfg =
  {
    Workload.impl = (module Sim_fig3);
    m = 8;
    updaters = 2;
    updates = 5;
    scanners = 2;
    scans = 3;
    r = 3;
    sched = (fun seed -> Scheduler.random ~seed ());
    seeds = 3;
    update_range = None;
    scan_idxs = None;
  }

let test_scan_set () =
  List.iter
    (fun (m, r) ->
      List.iter
        (fun j ->
          let s = Workload.scan_set ~m ~r j in
          check_int "r components" r (Array.length s);
          let sorted = List.sort_uniq compare (Array.to_list s) in
          check_int "distinct" r (List.length sorted);
          List.iter
            (fun i -> Alcotest.(check bool) "in range" true (i >= 0 && i < m))
            sorted)
        [ 0; 1; 2 ])
    [ (8, 3); (64, 8); (16, 16) ]

let test_workload_sample_counts () =
  let o = Workload.run base_cfg in
  check_int "three runs" 3 (List.length o.runs);
  List.iter
    (fun (r : Workload.run) ->
      let count k =
        List.length
          (List.filter (fun (s : Metrics.sample) -> s.kind = k) r.samples)
      in
      check_int "updates recorded" (2 * 5) (count "update");
      check_int "scans recorded" (2 * 3) (count "scan"))
    o.runs;
  Alcotest.(check bool) "collects observed" true (Workload.worst_collects o >= 2);
  Alcotest.(check bool)
    "scan steps positive" true
    (Workload.worst_steps o "scan" > 0)

let test_workload_update_range () =
  (* with update_range = 1, all updates hit component 0; a scan of {0}
     under heavy contention observes that *)
  let cfg =
    {
      base_cfg with
      Workload.update_range = Some 1;
      scan_idxs = Some [| 0 |];
      r = 1;
    }
  in
  let o = Workload.run cfg in
  Alcotest.(check bool) "runs complete" true (List.length o.runs = 3)

(* ---- contention measures vs brute force ---- *)

let sample pid kind (inv, resp) : Metrics.sample =
  { pid; kind; steps = 0; inv; resp }

let brute_point_contention all (s : Metrics.sample) =
  let best = ref 0 in
  for t = s.inv to s.resp do
    let active =
      List.length
        (List.filter
           (fun (o : Metrics.sample) -> o.inv <= t && t <= o.resp)
           all)
    in
    best := max !best active
  done;
  !best

let test_point_contention_brute_force () =
  let st = Random.State.make [| 42 |] in
  for _ = 1 to 50 do
    (* distinct stamps so interval endpoints are unambiguous *)
    let n = 2 + Random.State.int st 8 in
    let stamps =
      List.init (2 * n) (fun i -> (i * 3) + 1)
      |> List.map (fun s -> (Random.State.int st 1000, s))
      |> List.sort compare |> List.map snd
    in
    let rec pair_up = function
      | a :: b :: rest -> (min a b, max a b) :: pair_up rest
      | _ -> []
    in
    let all = List.mapi (fun i iv -> sample i "op" iv) (pair_up stamps) in
    List.iter
      (fun s ->
        check_int "point contention matches brute force"
          (brute_point_contention all s)
          (Metrics.point_contention all s))
      all
  done

let test_interval_contention_simple () =
  let a = sample 0 "op" (0, 10)
  and b = sample 1 "op" (5, 15)
  and c = sample 2 "op" (20, 30) in
  let all = [ a; b; c ] in
  check_int "a overlaps a,b" 2 (Metrics.interval_contention all a);
  check_int "c overlaps only c" 1 (Metrics.interval_contention all c);
  (* three ops overlapping pairwise but never simultaneously *)
  let x = sample 0 "op" (0, 10)
  and y = sample 1 "op" (9, 20)
  and z = sample 2 "op" (19, 30) in
  let all = [ x; y; z ] in
  check_int "interval contention of y" 3 (Metrics.interval_contention all y);
  check_int "point contention of y" 2 (Metrics.point_contention all y)

(* ---- tables ---- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_table_print_and_csv () =
  let t =
    Table.make ~title:"demo" ~header:[ "col"; "x" ]
      [ [ "a"; "1" ]; [ "long-cell"; "22" ] ]
  in
  let buf = Buffer.create 64 in
  let fmt = Format.formatter_of_buffer buf in
  Table.print ~out:fmt t;
  Format.pp_print_flush fmt ();
  let s = Buffer.contents buf in
  Alcotest.(check bool) "title present" true
    (String.length s > 0 && contains s "== demo ==");
  Alcotest.(check string) "csv" "col,x\na,1\nlong-cell,22" (Table.to_csv t);
  Alcotest.(check string) "csv quoting" "a,\"x,y\""
    (Table.to_csv (Table.make ~title:"t" ~header:[ "a"; "x,y" ] []))

(* ---- experiment tables are well-formed ---- *)

let test_experiment_shape () =
  List.iter
    (fun (name, e) ->
      (* smallest seeds for speed; e6/e7 ignore the parameter *)
      let t = e ?seeds:(Some 1) () in
      let cols = List.length t.Table.header in
      Alcotest.(check bool) (name ^ ": has rows") true (t.Table.rows <> []);
      List.iter
        (fun row ->
          check_int (name ^ ": row width matches header") cols (List.length row))
        t.Table.rows)
    Experiments.by_name

(* ---- the scenario engine ---- *)

module Scenario = Psnap_harness.Scenario
module Campaign = Psnap_harness.Campaign
module Scenarios = Psnap_harness.Scenarios

let campaign config =
  let (Scenarios.Any t) = Scenarios.of_config config in
  Campaign.run config t

let test_rejects_ignored_flags () =
  let d = Scenario.default in
  List.iter
    (fun (what, config) ->
      match campaign config with
      | _ -> Alcotest.failf "%s: the ignored flag was accepted" what
      | exception Scenario.Usage _ -> ())
    [
      ( "--impl fig3 --power-loss storm --check",
        { d with power_loss = "storm"; check = true } );
      ( "--mem net --mem-faults corrupt",
        { d with mem = "net"; mem_faults = "corrupt" } );
      ("--impl txn --crash-at 5", { d with impl = "txn"; crash_at = Some 5 });
    ]

(* The loadgen's table: an ignored flag and a bad configuration are both
   usage errors, raised before any domain starts. *)
let test_loadgen_rejects () =
  let module Cli = Psnap_harness.Loadgen_cli in
  List.iter
    (fun args ->
      let config =
        Scenario.parse Cli.default Cli.flags (String.split_on_char ' ' args)
      in
      match Cli.run config with
      | _ -> Alcotest.failf "%s: accepted" args
      | exception Scenario.Usage _ -> ())
    [
      (* flags the selected program does not read *)
      "--impl fig3 --open-shard 0";
      "--mem net --partition range";
      "--reconfig-under-load --impl txn";
      "--spares 3";
      "--theta 0.5";
      (* bad configurations *)
      "--mix 1u+1s --domains 3";
      "-r 0";
      "-m 4 -r 8";
      "--impl sharded --shards 0";
      "--duration abc";
      "--rate 1e12";
      "--impl resilient --open-shard 8";
      "--mem net --impl txn";
      "--reconfig-under-load --kill 3";
    ]

let e17_witness =
  if Sys.file_exists "schedules/e17-sharded-relaxed.sched" then
    "schedules/e17-sharded-relaxed.sched"
  else "../schedules/e17-sharded-relaxed.sched"

(* The campaign's JSON summary as (key, raw value) pairs, in file order. *)
let summary config =
  let path = Filename.temp_file "scenario" ".json" in
  ignore (campaign { config with Scenario.json = Some path });
  let lines = In_channel.with_open_text path In_channel.input_lines in
  Sys.remove path;
  List.filter_map
    (fun line ->
      match String.split_on_char '"' line with
      | _ :: key :: rest -> Some (key, String.concat "\"" rest)
      | _ -> None)
    lines

let test_resilient_replays () =
  (* every scenario reads --replay-file: one replayed execution *)
  summary
    { Scenario.default with impl = "resilient"; replay_file = Some e17_witness }
  |> List.assoc "runs"
  |> Alcotest.(check string) "one replayed execution" ": 1,"

let test_summary_header () =
  let tiny =
    {
      Scenario.default with
      m = 8;
      r = 2;
      updaters = 2;
      updates = 3;
      scanners = 1;
      scans = 2;
      seeds = 1;
      check = true;
    }
  in
  let header =
    [ "impl"; "sched"; "nemesis"; "seed_base"; "runs"; "steps"; "crashes";
      "restarts"; "violations"; "shrunk_schedule_len" ]
  in
  List.iter
    (fun config ->
      Alcotest.(check (list string))
        "common leading keys" header
        (List.filteri
           (fun i _ -> i < List.length header)
           (List.map fst (summary config))))
    [
      tiny;
      { tiny with impl = "resilient" };
      { tiny with impl = "durable" };
      { tiny with impl = "txn" };
      { tiny with mem = "net" };
      (* the reconfiguration scenario does not read -m and -r *)
      { tiny with m = Scenario.default.m; r = Scenario.default.r;
        reconfig = "fenced" };
    ]

(* A harness exception is a violation only where the scenario absorbs
   crashes (or under a memory-fault storm); elsewhere it must not pass
   for the violation --expect-violations asks for. *)
let test_crash_rule () =
  let crashing ~absorbs_crashes =
    Scenario.make ~name:"crashing" ~reads:[] ~absorbs_crashes
      ~pp_violation:Fmt.string (fun _ ->
        {
          Scenario.procs = [| (fun () -> failwith "harness bug") |];
          recover = (fun ~pid:_ ~incarnation:_ () -> ());
          check = (fun () -> []);
        })
  in
  let config = { Scenario.default with seeds = 2; expect_violations = true } in
  Alcotest.check_raises "propagates" (Failure "harness bug") (fun () ->
      ignore (Campaign.run config (crashing ~absorbs_crashes:false)));
  check_int "absorbed: counted as the expected violations" 0
    (Campaign.run config (crashing ~absorbs_crashes:true));
  Alcotest.check_raises "a replay always propagates" (Failure "harness bug")
    (fun () ->
      ignore
        (Campaign.run
           { config with replay_file = Some e17_witness }
           (crashing ~absorbs_crashes:true)))

let () =
  Alcotest.run "harness"
    [
      ( "workload",
        [
          Alcotest.test_case "scan_set" `Quick test_scan_set;
          Alcotest.test_case "sample counts" `Quick test_workload_sample_counts;
          Alcotest.test_case "update range" `Quick test_workload_update_range;
        ] );
      ( "contention",
        [
          Alcotest.test_case "point vs brute force" `Quick
            test_point_contention_brute_force;
          Alcotest.test_case "interval vs point" `Quick
            test_interval_contention_simple;
        ] );
      ( "table",
        [ Alcotest.test_case "print and csv" `Quick test_table_print_and_csv ] );
      ( "scenario",
        [
          Alcotest.test_case "rejects flags the scenario ignores" `Quick
            test_rejects_ignored_flags;
          Alcotest.test_case "loadgen rejects ignored flags and bad configs"
            `Quick test_loadgen_rejects;
          Alcotest.test_case "resilient replays a schedule file" `Quick
            test_resilient_replays;
          Alcotest.test_case "every summary has the common header" `Quick
            test_summary_header;
          Alcotest.test_case "harness crashes" `Quick test_crash_rule;
        ] );
      ( "experiments",
        [ Alcotest.test_case "tables well-formed" `Slow test_experiment_shape ]
      );
    ]
