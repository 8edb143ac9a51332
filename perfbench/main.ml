(* The psnap benchmark.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe --selftest

   --trace 0 measures the end-to-end metrics on the library's own stacks;
   --trace 1 runs the same workload untraced and then through the {!Wrap}
   wrappers, and reports the per-layer metrics.  Human-readable figures go
   first; the last line of standard output is one JSON object.  A failed
   output check prints the failure and exits 1 without a result. *)

let warmup_s = 0.5

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let fratio a b = if b = 0.0 then 0.0 else a /. b

let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6

let host_line () =
  Printf.sprintf "host_cores %d, OCaml %s" (Domain.recommended_domain_count ())
    Sys.ocaml_version

(* A metric row, printed in the table and in the JSON line; [note] (the
   sample count or base) goes to the table only. *)
type metric = { name : string; value : float; unit_ : string; note : string }

let row name value unit_ note = { name; value; unit_; note }

let print_table rows =
  List.iter
    (fun m -> Printf.printf "  %-34s %18.4f %-8s %s\n" m.name m.value m.unit_ m.note)
    rows

let json_result ~attempted ~failed rows =
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "0" in
  Printf.printf "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    attempted failed
    (String.concat ", "
       (List.map
          (fun m -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (num m.value) m.unit_)
          rows))

(* One measured run of [inst], then its output check.  [heap] also takes
   what the stack retains: the live major heap after a full GC, before the
   check allocates. *)
let drive ?(heap = false) (w : Workloads.t) (inst : Workloads.instance) ~seconds ~tracing =
  let windows = max 1 (int_of_float (seconds /. w.window_s)) in
  Fun.protect ~finally:inst.teardown (fun () ->
      let res =
        Driver.run
          { Driver.clients = w.clients; warmup_s; measure_s = seconds; windows; tracing }
          ~client:inst.client
      in
      let stat =
        if heap then begin
          Gc.full_major ();
          Some (Gc.stat ())
        end
        else None
      in
      (res, stat, inst.check ()))

(* ---- --trace 0: end-to-end metrics ---- *)

(* The measured seconds are split over [rounds] rounds.  Each round builds
   a fresh stack and fresh client domains, so a slow or fast placement of
   one build is one round's windows, not the whole run's.  Throughput and
   latency percentiles are medians over the windows of all rounds. *)
let rounds = 4

(* Set-up is timed on a settled heap (after a full major GC).  Before each
   round the stack is built [min_setups] times or more, until the round's
   builds took [setup_budget_s]; all but the last are torn down, and the
   last is the one the round measures.  [setup_s] is the median over every
   build of the run, so it spans the run's whole length. *)
let min_setups = 3
let max_setups = 20
let setup_budget_s = 0.05

let timed_build build =
  Gc.full_major ();
  let inst = build Workloads.Plain in
  (inst.Workloads.setup_s, inst)

let setup_series build =
  let rec go acc n spent =
    let dt, inst = timed_build build in
    let acc = dt :: acc and n = n + 1 and spent = spent +. dt in
    if n >= max_setups || (n >= min_setups && spent >= setup_budget_s) then (acc, inst)
    else begin
      inst.teardown ();
      go acc n spent
    end
  in
  go [] 0 0.0

let end_to_end (w : Workloads.t) ~seed ~seconds =
  let build = w.prepare ~seed in
  let runs =
    List.init rounds (fun _ ->
        let setups, inst = setup_series build in
        let res, _, account = drive w inst ~seconds:(seconds /. float_of_int rounds) ~tracing:false in
        (setups, res, account))
  in
  let results = List.map (fun (_, r, _) -> r) runs in
  let setups = Array.of_list (List.concat_map (fun (s, _, _) -> s) runs) in
  let setup_s = Driver.median setups in
  let over f = Array.concat (List.map f results) in
  let nw = Array.length (over Driver.window_throughputs) in
  let sum f = List.fold_left (fun a r -> a + f r) 0 results in
  let pct k p = Driver.median (over (fun r -> Driver.window_percentiles r k p)) /. 1000.0 in
  let attempted = sum Driver.attempted and failed = sum Driver.nfailed in
  let lat k kname p pname =
    row
      (Printf.sprintf "%s_%s_us" kname pname)
      (pct k p) "us"
      (Printf.sprintf "median of %d windows' %s; %d samples" nw pname
         (sum (fun r -> Driver.samples r k)))
  in
  let rows =
    [
      row "throughput_ops_s"
        (Driver.median (over Driver.window_throughputs))
        "ops/s"
        (Printf.sprintf "median of %d windows; %d ops" nw attempted);
      lat Gen.k_update "update" 0.50 "p50";
      lat Gen.k_update "update" 0.99 "p99";
      lat Gen.k_scan "scan" 0.50 "p50";
      lat Gen.k_scan "scan" 0.99 "p99";
      row "success_rate"
        (1.0 -. ratio failed attempted)
        "fraction"
        (Printf.sprintf "1 - error rate; %d failed of %d attempted" failed attempted);
      row "setup_s" setup_s "s" (Printf.sprintf "median of %d builds" (Array.length setups));
    ]
  in
  Printf.printf
    "%s, seed %d: %s\n%s; %d client domains; %d rounds, each a fresh build, %.1f s warmup and %d x %.1f s windows\n"
    w.name seed w.stack (host_line ()) w.clients rounds warmup_s (nw / rounds) w.window_s;
  List.iteri (fun i (_, _, account) -> Printf.printf "check, round %d: %s\n" (i + 1) account) runs;
  print_table rows;
  json_result ~attempted ~failed rows

(* ---- --trace 1: per-layer metrics ---- *)

let out_dir = ".perfbench-out"

let per_layer (w : Workloads.t) ~seed ~seconds =
  let build = w.prepare ~seed in
  let half = Float.max 1.0 (seconds /. 2.0) in
  (* untraced first: the baseline of trace.overhead, and the gc figures *)
  let plain, plain_heap, account0 =
    drive ~heap:true w (build Workloads.Plain) ~seconds:half ~tracing:false
  in
  let plain_heap = Option.get plain_heap in
  let inst = build Workloads.Traced in
  let net0 = Psnap.Metrics.net () in
  let res, _, account = drive w inst ~seconds:half ~tracing:true in
  let net1 = Psnap.Metrics.net () in
  let c = Obs.sum (List.map (fun p -> p.Driver.obs) res.Driver.parts) in
  let f k fld = c.(Obs.field k fld) in
  let count k = f k Obs.f_count in
  let per_count k fld = ratio (f k fld) (count k) in
  let updates = Driver.count_kind res Gen.k_update
  and scans = Driver.count_kind res Gen.k_scan
  and ops = Driver.attempted res in
  let pu = count Obs.k_persist_update in
  let storage_ns = f Obs.k_storage_append Obs.f_ns + f Obs.k_storage_sync Obs.f_ns in
  let rw = count Obs.k_txn_rw and commits = c.(Obs.txn_commits) in
  let rs = count Obs.k_resilient_scan in
  let rows =
    [
      row "mem.steps_per_update" (ratio c.(Obs.steps_in_updates) updates) "steps"
        (Printf.sprintf "base: %d updates" updates);
      row "mem.steps_per_scan" (ratio c.(Obs.steps_in_scans) scans) "steps"
        (Printf.sprintf "base: %d scans" scans);
      row "mem.cas_fail_ratio" (ratio c.(Obs.mem_cas_fail) c.(Obs.mem_cas)) "fraction"
        (Printf.sprintf "base: %d CAS" c.(Obs.mem_cas));
      row "activeset.getset_per_update" (ratio c.(Obs.getset_in_updates) updates) "calls"
        (Printf.sprintf "base: %d updates" updates);
      row "activeset.getset_size" (ratio c.(Obs.getset_size) (count Obs.k_aset_getset)) "pids"
        (Printf.sprintf "base: %d get_set" (count Obs.k_aset_getset));
      row "activeset.getset_ns" (per_count Obs.k_aset_getset Obs.f_ns) "ns"
        (Printf.sprintf "base: %d get_set" (count Obs.k_aset_getset));
      row "snapshot.scan_ns" (per_count Obs.k_snap_scan Obs.f_self_ns) "ns"
        (Printf.sprintf "self time; base: %d inner scans" (count Obs.k_snap_scan));
      row "snapshot.update_ns" (per_count Obs.k_snap_update Obs.f_self_ns) "ns"
        (Printf.sprintf "self time; base: %d inner updates" (count Obs.k_snap_update));
      row "snapshot.collects_per_scan" (ratio c.(Obs.collects) (count Obs.k_snap_scan)) "collects"
        (Printf.sprintf "base: %d inner scans" (count Obs.k_snap_scan));
      row "snapshot.minor_words_per_scan" (per_count Obs.k_snap_scan Obs.f_words) "words"
        "inclusive of the active set";
      row "snapshot.minor_words_per_update" (per_count Obs.k_snap_update Obs.f_words) "words"
        "inclusive of the active set";
      row "resilient.rounds_per_scan" (ratio c.(Obs.res_rounds) rs) "rounds"
        (Printf.sprintf "exact, last_scan_rounds; base: %d scans" rs);
      row "resilient.shards_per_scan" (ratio c.(Obs.res_shards) rs) "shards"
        (Printf.sprintf "base: %d scans" rs);
      row "resilient.self_ns_per_scan" (per_count Obs.k_resilient_scan Obs.f_self_ns) "ns"
        (Printf.sprintf "base: %d scans" rs);
      row "resilient.minor_words_per_scan" (per_count Obs.k_resilient_scan Obs.f_self_words)
        "words" "self, above the inner snapshot";
      row "resilient.degraded_ratio" (ratio c.(Obs.res_degraded) rs) "fraction"
        (Printf.sprintf "base: %d scans" rs);
      row "persist.appends_per_update" (ratio (count Obs.k_storage_append) pu) "appends"
        (Printf.sprintf "base: %d durable updates" pu);
      row "persist.syncs_per_update" (ratio (count Obs.k_storage_sync) pu) "syncs"
        (Printf.sprintf "base: %d durable updates" pu);
      row "persist.bytes_per_update" (ratio c.(Obs.storage_bytes) pu) "bytes"
        (Printf.sprintf "base: %d durable updates" pu);
      row "persist.storage_ns_per_update" (ratio storage_ns pu) "ns"
        "append + sync time, checkpoints included";
      row "persist.lock_wait_ns_per_update"
        (ratio
           (f Obs.k_persist_update Obs.f_ns
           - (storage_ns - c.(Obs.storage_ns_in_ckpt))
           - f Obs.k_snap_update Obs.f_ns - c.(Obs.checkpoint_ns))
           pu)
        "ns" "update - storage - inner update - checkpoint";
      row "persist.checkpoints" (float_of_int c.(Obs.checkpoints)) "count"
        "sealed in the measured window";
      row "persist.checkpoint_ns" (ratio c.(Obs.checkpoint_ns) c.(Obs.checkpoints)) "ns"
        "per checkpoint: full scan + marshal + log write";
      row "persist.minor_words_per_update" (per_count Obs.k_persist_update Obs.f_words) "words"
        "inclusive of the inner update";
      row "txn.attempts_per_commit" (ratio rw commits) "attempts"
        (Printf.sprintf "base: %d commits" commits);
      row "txn.abort_rate_conflict" (ratio c.(Obs.txn_conflicts) rw) "fraction"
        (Printf.sprintf "base: %d attempts" rw);
      row "txn.abort_rate_busy" (ratio c.(Obs.txn_busy) rw) "fraction"
        (Printf.sprintf "base: %d attempts" rw);
      row "txn.commit_ns" (per_count Obs.k_txn_commit Obs.f_ns) "ns"
        (Printf.sprintf "per commit call; base: %d" (count Obs.k_txn_commit));
      row "txn.ro_ns" (per_count Obs.k_txn_ro Obs.f_ns) "ns"
        (Printf.sprintf "base: %d read-only txns" (count Obs.k_txn_ro));
      row "txn.minor_words_per_txn"
        (ratio
           (f Obs.k_txn_rw Obs.f_words + f Obs.k_txn_ro Obs.f_words)
           (commits + count Obs.k_txn_ro))
        "words" "retries included";
      row "net.quorum_ops_per_op" (ratio c.(Obs.net_qops) ops) "qops"
        (Printf.sprintf "base: %d ops" ops);
      row "net.quorum_op_ns" (ratio c.(Obs.net_qop_ns) c.(Obs.net_qops)) "ns"
        (Printf.sprintf "base: %d quorum ops" c.(Obs.net_qops));
      row "net.rounds_per_quorum_op"
        (ratio
           (net1.Psnap.Metrics.rounds - net0.Psnap.Metrics.rounds)
           (net1.Psnap.Metrics.quorum_ops - net0.Psnap.Metrics.quorum_ops))
        "rounds" "approximate: plain-ref Metrics counters, warmup included";
      row "net.msgs_per_op"
        (ratio (net1.Psnap.Metrics.sends - net0.Psnap.Metrics.sends) ops)
        "msgs" "approximate: plain-ref Metrics counters, warmup included";
      row "gc.minor_words_per_op"
        (fratio
           (List.fold_left (fun a p -> a +. p.Driver.minor_words) 0.0 plain.Driver.parts)
           (float_of_int (Driver.attempted plain)))
        "words" "untraced run, client domains";
      row "gc.major_collections" (float_of_int plain.Driver.major_collections) "count"
        "untraced run, measured window";
      row "gc.live_heap_mb" (mb plain_heap.Gc.live_words) "MB"
        "untraced run: live major heap after it and a full GC";
      row "gc.top_heap_mb" (mb plain_heap.Gc.top_heap_words) "MB"
        "untraced run: Gc top_heap_words, set-up included";
      row "trace.overhead" (fratio (Driver.throughput res) (Driver.throughput plain)) "ratio"
        "traced / untraced throughput";
    ]
  in
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let path = Printf.sprintf "%s/spans-%s-seed%d.jsonl" out_dir w.name seed in
  Obs.write_spans path ~t0:res.Driver.t_start
    (List.map (fun p -> p.Driver.obs) res.Driver.parts);
  Printf.printf "%s, seed %d, traced: %s\n%s; %d client domains; %.1f s untraced + %.1f s traced\n"
    w.name seed w.stack (host_line ()) w.clients half half;
  Printf.printf "check (untraced): %s\ncheck (traced): %s\nspans: %s (every %dth request)\n"
    account0 account path Obs.sample_every;
  print_table rows;
  json_result ~attempted:ops ~failed:(Driver.nfailed res) rows

(* ---- --selftest: the output checks are live ---- *)

let selftest () =
  let short (w : Workloads.t) v =
    let inst = w.prepare ~seed:7 v in
    match
      Driver.run
        { Driver.clients = w.clients; warmup_s = 0.2; measure_s = 1.0; windows = 1; tracing = false }
        ~client:inst.client
    with
    | _ ->
      let r = try Ok (inst.check ()) with Gen.Check_failed e -> Error e in
      inst.teardown ();
      r
    | exception Gen.Check_failed e ->
      inst.teardown ();
      Error e
  in
  let expect (label, want, (w : Workloads.t), v) =
    let r = short w v in
    let ok = Result.is_ok r = want in
    Printf.printf "%s %s: %s\n%!"
      (if ok then "ok  " else "FAIL")
      label
      (match r with Ok s -> "passed: " ^ s | Error e -> "check failed: " ^ e);
    ok
  in
  let results =
    List.map expect
      [
        ("range-read, sound stack", true, Workloads.range_read, Workloads.Plain);
        ("range-read, two components swapped (must fail)", false, Workloads.range_read, Swapped);
        ("txn-transfer, first-committer-wins", true, Workloads.txn_transfer, Plain);
        ("txn-transfer, Txn.Lww (must fail)", false, Workloads.txn_transfer, Lww);
      ]
  in
  if List.for_all Fun.id results then 0 else 1

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  let self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the operation streams");
      ("--seconds", Arg.Set_int seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ("--selftest", Arg.Set self, " run the negative controls of the output checks");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  Driver.set_minor_heap ();
  if !self then exit (selftest ());
  match List.find_opt (fun (w : Workloads.t) -> w.name = !workload) Workloads.all with
  | None ->
    Printf.eprintf "unknown workload %S (choose from: %s)\n" !workload
      (String.concat ", " (List.map (fun (w : Workloads.t) -> w.name) Workloads.all));
    exit 2
  | Some w -> (
    if !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
      prerr_endline "--seconds must be >= 1 and --trace 0 or 1";
      exit 2
    end;
    let seconds = float_of_int !seconds in
    try
      if !trace = 0 then end_to_end w ~seed:!seed ~seconds
      else per_layer w ~seed:!seed ~seconds
    with Gen.Check_failed e ->
      Printf.printf "FAILED output check on %s: %s\n" w.name e;
      exit 1)
