open Psnap
open Scenario
module Loadgen = Runtime.Loadgen
module Histogram = Runtime.Histogram

type config = {
  impl : string;
  mem : string;
  replicas : int;
  shards : int;
  partition : string;
  m : int;
  r : int;
  domains : int;
  dist : string;
  theta : float;
  mix : string;
  rate : float option;
  scan : string;
  duration : string;
  warmup : string;
  seed : int;
  open_shard : int option;
  json : string option;
  reconfig_under_load : bool;
  spares : int;
  kill : int option;
}

let default =
  {
    impl = "fig3";
    mem = "raw";
    replicas = 3;
    shards = 8;
    partition = "rr";
    m = 1024;
    r = 8;
    domains = 2;
    dist = "uniform";
    theta = 0.99;
    mix = "50:50";
    rate = None;
    scan = "random";
    duration = "2s";
    warmup = "0.2s";
    seed = 0;
    open_shard = None;
    json = None;
    reconfig_under_load = false;
    spares = 2;
    kill = None;
  }

module Mc_stack = Stack.Make (Mem.Atomic)
module Net_stack = Stack.Make (Net.Abd.Mc_mem)

(* "90:10" -> update probability 0.9; "1u+3s" -> dedicated roles *)
let mix_of s =
  let count suffix t =
    match String.length t with
    | n when n > 1 && t.[n - 1] = suffix -> int_of_string_opt (String.sub t 0 (n - 1))
    | _ -> None
  in
  let bad () = usage "bad --mix %S (use U:S, e.g. 90:10, or NuMs, e.g. 1u+3s)" s in
  match String.split_on_char ':' s, String.split_on_char '+' s with
  | [ u; sc ], _ -> (
    match (float_of_string_opt u, float_of_string_opt sc) with
    | Some u, Some sc when u >= 0.0 && sc >= 0.0 && u +. sc > 0.0 ->
      Loadgen.Ratio (u /. (u +. sc))
    | _ -> bad ())
  | _, [ u; sc ] -> (
    match (count 'u' u, count 's' sc) with
    | Some updaters, Some scanners -> Loadgen.Dedicated { updaters; scanners }
    | _ -> bad ())
  | _ -> bad ()

(* "2s" | "2" | "250ms" -> seconds *)
let seconds_of flag s =
  let n = String.length s in
  let v =
    if n > 2 && String.sub s (n - 2) 2 = "ms" then
      Option.map (fun x -> x /. 1000.0) (float_of_string_opt (String.sub s 0 (n - 2)))
    else if n > 1 && s.[n - 1] = 's' then float_of_string_opt (String.sub s 0 (n - 1))
    else float_of_string_opt s
  in
  match v with Some v -> v | None -> usage "bad --%s %S (e.g. 2s, 500ms)" flag s

(* ---- reconfigure-under-load (EXPERIMENTS.md E21, wall-clock side) ----

   [domains] writer domains hammer one ABD register each while the
   control thread permanently kills members of the current configuration
   one at a time, driving a fenced replacement reconfiguration after each
   kill — so the state transfer always finds a read quorum of the
   configuration it seals, even once a majority of the ORIGINAL members
   is dead.  Reported: the longest wall-clock stretch any domain went
   without a successful operation (the availability gap), the epoch
   chase count, whether every domain completed operations after the last
   replacement (the service returned to Atomic), and a final read-back
   per register (no acked write may be lost across the replacements). *)
let reconfigure c =
  let module A = Net.Abd in
  let module R = Net.Reconfig in
  let replicas = c.replicas and spares = c.spares and domains = c.domains in
  let duration_s = seconds_of "duration" c.duration in
  let kill_n = Option.value c.kill ~default:((replicas / 2) + 1) in
  if replicas < 3 then usage "--reconfig-under-load needs --replicas >= 3";
  if domains < 1 then usage "--domains must be >= 1";
  if kill_n > spares then
    usage
      "--kill %d needs at least that many --spares (have %d): every dead \
       member is replaced by a fresh spare"
      kill_n spares;
  Metrics.reset_net ();
  Metrics.reset_serving ();
  Metrics.reset_reconfig ();
  (* Bounded attempt budgets: with members dying permanently, an
     operation must give up as [Unavailable] and chase the new
     configuration instead of waiting forever for a dead quorum's acks. *)
  let cluster =
    A.mc_cluster ~poll_budget:32 ~max_attempts:4 ~clients:(domains + 1)
      ~replicas ~spares ~with_manager:true ()
  in
  (* Clients park at most one condition-wait per poll; this ticker
     guarantees they wake and burn budget even when no replica traffic
     reaches them (i.e. while a dead quorum is being replaced). *)
  let waker_stop = Atomic.make false in
  let waker =
    Domain.spawn (fun () ->
        while not (Atomic.get waker_stop) do
          ignore (Unix.select [] [] [] 0.001);
          A.mc_wake cluster
        done)
  in
  let pool = replicas + spares in
  let rdomains =
    List.init pool (fun i -> Domain.spawn (A.mc_replica_body cluster ~index:i))
  in
  let rc = R.mc_attach ~mode:R.Fenced cluster in
  let regs =
    Array.init domains (fun d ->
        A.Mc_mem.make ~name:(Printf.sprintf "ul.reg.%d" d) 0)
  in
  let stop = Atomic.make false in
  let done_at = Atomic.make infinity in
  let last_acked = Array.make domains 0 in
  let ops_ok = Array.make domains 0 in
  let ops_unavail = Array.make domains 0 in
  let post_ok = Array.make domains false in
  let max_gap = Array.make domains 0.0 in
  let lost = Array.make domains false in
  let worker d () =
    let k = ref 0 in
    let last_success = ref (Unix.gettimeofday ()) in
    while not (Atomic.get stop) do
      incr k;
      try
        A.Mc_mem.write regs.(d) !k;
        last_acked.(d) <- !k;
        ops_ok.(d) <- ops_ok.(d) + 1;
        let now = Unix.gettimeofday () in
        let gap = now -. !last_success in
        if gap > max_gap.(d) then max_gap.(d) <- gap;
        last_success := now;
        if now > Atomic.get done_at then post_ok.(d) <- true
      with Net.Unavailable _ -> ops_unavail.(d) <- ops_unavail.(d) + 1
    done;
    try
      let v = A.Mc_mem.read regs.(d) in
      if v < last_acked.(d) then lost.(d) <- true
    with Net.Unavailable _ -> ()
  in
  let workers = List.init domains (fun d -> Domain.spawn (worker d)) in
  let t0 = Unix.gettimeofday () in
  let sleep s = ignore (Unix.select [] [] [] s) in
  let replace_retries = ref 0 in
  sleep (duration_s /. 8.);
  for i = 0 to kill_n - 1 do
    A.mc_kill cluster ~index:i;
    let cfg = R.mc_current_config rc in
    let dead = List.nth (A.mc_pool_nodes cluster) i in
    let spare = List.nth (A.mc_pool_nodes cluster) (replicas + i) in
    let members =
      List.map (fun n -> if n = dead then spare else n) cfg.A.members
    in
    let rec attempt n =
      match R.mc_reconfigure rc ~members with
      | _ -> ()
      | exception Net.Unavailable _ ->
        incr replace_retries;
        if n < 100 then begin
          sleep 0.02;
          attempt (n + 1)
        end
        else
          Printf.eprintf
            "replacement %d never reached quorum; leaving the configuration\n"
            i
    in
    attempt 0;
    sleep (duration_s /. 8.)
  done;
  Atomic.set done_at (Unix.gettimeofday ());
  let elapsed = Unix.gettimeofday () -. t0 in
  if elapsed < duration_s then sleep (duration_s -. elapsed);
  Atomic.set stop true;
  List.iter Domain.join workers;
  A.mc_stop cluster;
  List.iter Domain.join rdomains;
  Atomic.set waker_stop true;
  Domain.join waker;
  let rm : Metrics.reconfig = Metrics.reconfig () in
  let nv : Metrics.net = Metrics.net () in
  let recovered = Array.for_all Fun.id post_ok in
  let lost_any = Array.exists Fun.id lost in
  let max_gap_all = Array.fold_left max 0.0 max_gap in
  let final : A.config = R.mc_current_config rc in
  let total a = Array.fold_left ( + ) 0 a in
  Printf.printf
    "reconfigure-under-load: %d domains over %d replicas + %d spares; \
     killed %d members permanently, %d reconfigurations (%d transfer \
     retries), final epoch %d over members %s\n"
    domains replicas spares kill_n rm.reconfigs !replace_retries
    final.A.epoch
    (String.concat "," (List.map string_of_int final.A.members));
  Printf.printf
    "ops: %d acked, %d unavailable; max availability gap %.0f ms; %d stale \
     rejects, %d epoch chases; recovered=%b, lost_writes=%b\n"
    (total ops_ok) (total ops_unavail)
    (max_gap_all *. 1000.0)
    rm.stale_rejects rm.epoch_chases recovered lost_any;
  Option.iter
    (fun path ->
      Json.write path
        Json.
          [
            s "scenario" "reconfigure-under-load";
            i "domains" domains;
            i "replicas" replicas;
            i "spares" spares;
            i "killed" kill_n;
            ("duration_s", Printf.sprintf "%.3f" duration_s);
            i "ops_ok" (total ops_ok);
            i "ops_unavailable" (total ops_unavail);
            ("max_availability_gap_ms", Printf.sprintf "%.1f" (max_gap_all *. 1000.0));
            i "reconfigs" rm.reconfigs;
            i "transfer_retries" !replace_retries;
            i "final_epoch" final.A.epoch;
            i "stale_rejects" rm.stale_rejects;
            i "epoch_chases" rm.epoch_chases;
            i "seals" rm.seals;
            i "transfers" rm.transfers;
            i "activations" rm.activations;
            i "quorum_rounds" nv.rounds;
            i "unavailable_ops" nv.unavailable;
            ("recovered", string_of_bool recovered);
            ("lost_writes", string_of_bool lost_any);
        ];
      Printf.printf "json summary written to %s\n" path)
    c.json;
  if lost_any then begin
    Printf.printf "FAIL: an acked write was lost across reconfiguration\n";
    1
  end
  else if not recovered then begin
    Printf.printf
      "FAIL: a domain never completed an operation after the last \
       replacement\n";
    1
  end
  else begin
    Printf.printf
      "service returned to Atomic after replacing %d of %d original members\n"
      kill_n replicas;
    0
  end

(* ---- the command line ---- *)

let flag kind name ?docv doc (get : config -> _) = flag kind name ?docv doc get

let flags =
  [
    flag Text "impl" ~docv:"NAME"
      (choices "Implementation" (List.map fst Mc_stack.bases @ Stack.layered))
      (fun c -> c.impl)
      (fun c impl -> { c with impl });
    flag Text "mem" ~docv:"BACKEND"
      "Memory backend: raw (in-process atomics, the default) or net (ABD \
       quorum registers served by $(b,--replicas) replica domains over the \
       message transport; docs/MODEL.md section 14)."
      (fun c -> c.mem)
      (fun c mem -> { c with mem });
    flag Int "replicas" ~docv:"N" "Replica count for $(b,--mem net)."
      (fun c -> c.replicas)
      (fun c replicas -> { c with replicas });
    flag Int "shards" ~docv:"S" "Shard count for the sharded implementations."
      (fun c -> c.shards)
      (fun c shards -> { c with shards });
    flag Text "partition" ~docv:"P"
      "Component placement for sharded: rr (round-robin) or range."
      (fun c -> c.partition)
      (fun c partition -> { c with partition });
    flag Int "m" "Vector size." (fun c -> c.m) (fun c m -> { c with m });
    flag Int "r" "Components per scan." (fun c -> c.r) (fun c r -> { c with r });
    flag Int "domains" ~docv:"D" "Client domains." (fun c -> c.domains)
      (fun c domains -> { c with domains });
    flag Text "dist" ~docv:"NAME" "Key popularity: uniform, zipf."
      (fun c -> c.dist)
      (fun c dist -> { c with dist });
    flag Float "theta" "Zipf exponent for --dist zipf." (fun c -> c.theta)
      (fun c theta -> { c with theta });
    flag Text "mix" ~docv:"U:S"
      "Update:scan ratio (e.g. 90:10), or dedicated roles as NuMs (e.g. \
       1u+1s: one updater domain, one scanner domain)."
      (fun c -> c.mix)
      (fun c mix -> { c with mix });
    flag Some_float "rate" ~docv:"OPS"
      "Open-loop target arrival rate (total ops/s); omit for a closed loop."
      (fun c -> c.rate)
      (fun c rate -> { c with rate });
    flag Text "scan" ~docv:"PAT"
      "Scan index pattern: random (r independent draws) or window (a \
       contiguous range of r components starting at a drawn base)."
      (fun c -> c.scan)
      (fun c scan -> { c with scan });
    flag Text "duration" ~docv:"T" "Measured run length (e.g. 2s, 500ms)."
      (fun c -> c.duration)
      (fun c duration -> { c with duration });
    flag Text "warmup" ~docv:"T"
      "Warmup excluded from measurement (e.g. 0.2s)."
      (fun c -> c.warmup)
      (fun c warmup -> { c with warmup });
    flag Int "seed" "Workload seed." (fun c -> c.seed)
      (fun c seed -> { c with seed });
    flag Some_int "open-shard" ~docv:"S"
      "($(b,--impl resilient) only) Pin shard S's circuit breaker open for \
       the whole run: its scans are served as single-round degraded \
       fragments, demonstrating that an unavailable shard does not inflate \
       the latency of scans on healthy shards."
      (fun c -> c.open_shard)
      (fun c open_shard -> { c with open_shard });
    flag Some_text "json" ~docv:"FILE"
      "Write a machine-readable summary to FILE."
      (fun c -> c.json)
      (fun c json -> { c with json });
    flag Switch "reconfig-under-load"
      "Run the E21 wall-clock scenario instead of the benchmark: writer \
       domains hammer ABD registers while a majority of the members is \
       permanently killed and replaced one at a time by fenced \
       reconfigurations; reports the availability gap, the epoch chases, \
       and whether the service returned to Atomic (exit 1 on a lost write \
       or an unrecovered domain)."
      (fun c -> c.reconfig_under_load)
      (fun c reconfig_under_load -> { c with reconfig_under_load });
    flag Int "spares" ~docv:"N"
      "($(b,--reconfig-under-load) only) Spare replicas available for \
       promotion; must cover $(b,--kill)."
      (fun c -> c.spares)
      (fun c spares -> { c with spares });
    flag Some_int "kill" ~docv:"N"
      "($(b,--reconfig-under-load) only) Members killed permanently, one \
       replacement each (default: a majority of --replicas)."
      (fun c -> c.kill)
      (fun c kill -> { c with kill });
  ]

(* ---- the benchmark: one stack under the load generator ---- *)

(* The stack [--impl] and [--mem] select, with the flags beyond the
   workload's that it reads. *)
let stack c : (module Snapshot.S) * string list =
  let placement () =
    if c.shards < 1 then usage "--shards must be >= 1";
    choose "--partition"
      [ ("rr", `Round_robin); ("round-robin", `Round_robin); ("range", `Range) ]
      c.partition
  in
  let geometry = [ "shards"; "partition" ] in
  match (c.mem, c.impl) with
  | "net", impl when List.mem impl Stack.layered ->
    usage "--mem net does not support --impl %s" impl
  | "net", impl -> (Stack.choose Net_stack.bases impl, [ "replicas" ])
  | "raw", ("sharded" | "sharded-relaxed") ->
    let mode = if c.impl = "sharded" then `Validated else `Relaxed in
    (Mc_stack.sharded ~shards:c.shards ~partition:(placement ()) ~mode, geometry)
  | "raw", "resilient" ->
    (* --open-shard pins one circuit open for the whole run, so its scans
       are single-round degraded fragments: the experiment behind "a
       stalled shard does not drag down the others" *)
    let module RS =
      Mc_stack.Resilient (Mc_stack.Fig3) (Mc_stack.Fig3)
        (struct
          let shards = c.shards
          let partition = placement ()
          let max_rounds = 6
        end)
    in
    Option.iter
      (fun s ->
        let n = min c.shards c.m in
        if s < 0 || s >= n then
          usage "--open-shard %d out of range (0..%d)" s (n - 1))
      c.open_shard;
    ( (module struct
        include RS.Snap

        let create ~n init =
          let t = RS.Snap.create ~n init in
          Option.iter (RS.force_open t) c.open_shard;
          t
      end),
      "open-shard" :: geometry )
  | "raw", "durable" -> ((module Mc_stack.Durable (Persist.Storage.Mc)), [])
  | "raw", "txn" -> ((module Mc_stack.Txn_snap), [])
  | "raw", impl -> (Stack.choose Mc_stack.bases impl, [])
  | m, _ -> usage "unknown --mem %S (choose from: raw, net)" m

let bench c =
  let (module S : Snapshot.S), reads = stack c in
  let workload =
    [ "impl"; "mem"; "m"; "r"; "domains"; "dist"; "mix"; "rate"; "scan";
      "duration"; "warmup"; "seed"; "json" ]
  in
  let dist =
    choose "--dist"
      [ ("uniform", Loadgen.Uniform); ("zipf", Loadgen.Zipfian c.theta) ]
      c.dist
  in
  reject_ignored flags ~default
    ~reads:(workload @ reads @ if c.dist = "zipf" then [ "theta" ] else [])
    ~what:(Printf.sprintf "the %s stack" S.name)
    c;
  let mix = mix_of c.mix in
  let loop =
    match c.rate with Some r -> Loadgen.Open_rate r | None -> Loadgen.Closed
  in
  let scan_pattern =
    choose "--scan"
      [ ("random", Loadgen.Random_set); ("window", Loadgen.Window) ]
      c.scan
  in
  let cfg =
    {
      Loadgen.m = c.m;
      r = c.r;
      domains = c.domains;
      dist;
      mix;
      loop;
      scan_pattern;
      warmup_s = seconds_of "warmup" c.warmup;
      duration_s = seconds_of "duration" c.duration;
      seed = c.seed;
    }
  in
  (try Loadgen.validate cfg with Invalid_argument e -> usage "%s" e);
  let teardown =
    if c.mem = "raw" then ignore
    else begin
      (* replicated backend: the same code, but every register is an ABD
         quorum register served by [replicas] replica domains over the
         mutex-guarded message transport.  Throughput against --mem raw
         prices the quorum rounds (BENCH_runtime.json).  + 1 client
         head-room: the spawning domain never operates, but must not
         steal a client node id if an implementation ever reads during
         create. *)
      if c.replicas < 1 then usage "--replicas must be >= 1";
      let cluster = Net.Abd.mc_cluster ~clients:(c.domains + 1) ~replicas:c.replicas () in
      let rdomains =
        List.init c.replicas (fun i ->
            Domain.spawn (Net.Abd.mc_replica_body cluster ~index:i))
      in
      fun () ->
        Net.Abd.mc_stop cluster;
        List.iter Domain.join rdomains
    end
  in
  Metrics.reset_serving ();
  Metrics.reset_net ();
  Metrics.reset_txn ();
  let rep = Loadgen.run (module S) cfg in
  teardown ();
  (* serving-layer counters (sharded validation rounds, resilient breaker
     activity and degraded scans); plain refs bumped from many domains, so
     totals are approximate under contention — like the hardened stats *)
  let sv : Metrics.serving = Metrics.serving () in
  let lat_row kind h =
    [
      kind;
      string_of_int (Histogram.count h);
      (if rep.Loadgen.elapsed_s > 0.0 then
         Printf.sprintf "%.0f"
           (float_of_int (Histogram.count h) /. rep.Loadgen.elapsed_s)
       else "0");
      string_of_int (Histogram.percentile h 50.0);
      string_of_int (Histogram.percentile h 90.0);
      string_of_int (Histogram.percentile h 99.0);
      string_of_int (Histogram.percentile h 99.9);
      string_of_int (Histogram.max_value h);
    ]
  in
  Table.print
    (Table.make
       ~title:
         (Printf.sprintf
            "%s: m=%d r=%d, %d domains, %s, mix %s, %s, %s scans, %.2fs measured -> %.0f ops/s"
            S.name c.m c.r c.domains
            (Loadgen.dist_to_string dist)
            (Loadgen.mix_to_string mix)
            (Loadgen.loop_to_string loop)
            (Loadgen.scan_pattern_to_string scan_pattern)
            rep.Loadgen.elapsed_s (Loadgen.throughput rep))
       ~header:
         [ "op"; "count"; "ops/s"; "p50 ns"; "p90 ns"; "p99 ns"; "p99.9 ns"; "max ns" ]
       [
         lat_row "update" rep.Loadgen.update_lat;
         lat_row "scan" rep.Loadgen.scan_lat;
       ]);
  let nv : Metrics.net = Metrics.net () in
  if nv.quorum_ops > 0 then
    Printf.printf
      "net: %d replicas, %d sends / %d delivers, %d quorum rounds (%.2f \
       rounds/op, %d resends), writebacks %d (+%d skipped), mean quorum \
       wait %.1f polls, %d unavailable\n"
      c.replicas nv.sends nv.delivers nv.rounds
      (float_of_int nv.rounds /. float_of_int nv.quorum_ops)
      nv.resends nv.writebacks nv.writeback_skips
      (Metrics.mean_quorum_wait nv)
      nv.unavailable;
  if sv.scan_rounds > 0 then
    Printf.printf
      "serving: %d scan rounds (%d retries), %d degraded scans, breaker \
       o/h/c=%d/%d/%d\n"
      sv.scan_rounds sv.scan_retries sv.degraded_scans
      sv.breaker_opens sv.breaker_half_opens
      sv.breaker_closes;
  (* plain refs bumped from many domains: approximate under contention *)
  let tm : Metrics.txn = Metrics.txn () in
  if tm.begins > 0 then Fmt.pr "%a@." Metrics.pp_txn tm;
  Option.iter
    (fun path ->
      Json.write path
        (Loadgen.json_fields ~impl:S.name cfg rep
        @ Json.
            [
              i "shards" c.shards;
              i "seed" c.seed;
              o "open_shard" c.open_shard;
              i "scan_rounds" sv.scan_rounds;
              i "scan_retries" sv.scan_retries;
              i "degraded_scans" sv.degraded_scans;
              i "backoff_steps" sv.backoff_steps;
              i "breaker_opens" sv.breaker_opens;
              i "breaker_half_opens" sv.breaker_half_opens;
              i "breaker_closes" sv.breaker_closes;
              i "heals_completed" sv.heals_completed;
              s "mem" c.mem;
              i "replicas" c.replicas;
              i "net_sends" nv.sends;
              i "net_delivers" nv.delivers;
              i "quorum_rounds" nv.rounds;
              i "quorum_resends" nv.resends;
              i "quorum_ops" nv.quorum_ops;
              ( "rounds_per_op",
                if nv.quorum_ops = 0 then "0"
                else
                  Printf.sprintf "%.3f"
                    (float_of_int nv.rounds /. float_of_int nv.quorum_ops) );
              i "writebacks" nv.writebacks;
              i "writeback_skips" nv.writeback_skips;
              ("mean_quorum_wait", Printf.sprintf "%.2f" (Metrics.mean_quorum_wait nv));
              i "unavailable_ops" nv.unavailable;
              i "txn_begins" tm.begins;
              i "txn_ro_commits" tm.ro_commits;
              i "txn_rw_commits" tm.rw_commits;
              i "txn_retries" (tm.conflicts + tm.busy_aborts);
              ("txn_abort_rate", Printf.sprintf "%.4f" (Metrics.txn_abort_rate tm));
          ]);
      Printf.printf "json summary written to %s\n" path)
    c.json;
  0

let run c =
  if c.reconfig_under_load then begin
    reject_ignored flags ~default
      ~reads:
        [ "reconfig-under-load"; "replicas"; "spares"; "kill"; "domains";
          "duration"; "json" ]
      ~what:"--reconfig-under-load" c;
    reconfigure c
  end
  else bench c
