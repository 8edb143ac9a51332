open Psnap
open Scenario

(* ---- the shared snapshot workload ----

   Updater [pid] writes [updates] values, unique across pids and
   incarnations, to components [(k + 7 pid) mod m]; scanner [pid] scans a
   fixed window of [r] components [scans] times.  Committed witness
   schedules were shrunk against exactly this program. *)

let init c = Array.init c.m (fun i -> -(i + 1))

let window c pid =
  Workload.scan_set ~m:c.m ~r:c.r (pid - c.updaters)
  |> Array.to_list |> List.sort_uniq compare |> Array.of_list

let updates c ~pid ~incarnation f =
  for k = 1 to c.updates do
    f ((k + (pid * 7)) mod c.m) ((pid * 1_000_000) + (incarnation * 10_000) + k)
  done

let op rec_ hist ~pid ~kind o f =
  Metrics.measure rec_ ~pid ~kind (fun () -> ignore (History.record hist ~pid o f))

let record_update rec_ hist ~pid update i v =
  op rec_ hist ~pid ~kind:"update" (Snapshot_spec.Update (i, v)) (fun () ->
      update i v;
      Snapshot_spec.Ack)

(* One process of the workload against [update]/[scan]; [attempt] wraps
   each operation (the quorum backend's give-up handler). *)
let snapshot_body c rec_ hist ?(attempt = fun f -> f ()) ~pid ~incarnation
    ~update ~scan () =
  if pid < c.updaters then
    updates c ~pid ~incarnation (fun i v ->
        attempt (fun () -> record_update rec_ hist ~pid update i v))
  else
    let idxs = window c pid in
    for _ = 1 to c.scans do
      attempt (fun () ->
          op rec_ hist ~pid ~kind:"scan" (Snapshot_spec.Scan idxs) (fun () ->
              Snapshot_spec.Vals (scan idxs)))
    done

let observe c hist () =
  Snapshot_spec.check_observations ~init:(init c) (History.entries hist)

let i k v = (k, Json.int v)

let s k v = (k, Json.str v)

let o k = function Some v -> i k v | None -> (k, "null")

let mem_flags = [ "mem-faults"; "mem-rate"; "mem-max" ]

let mem_fault_counters () =
  let mf = Metrics.mem_faults () in
  [
    i "mem_faults_injected" (Metrics.total_injected mf);
    i "mem_faults_detected" (Metrics.total_detected mf);
  ]

(* ---- flat: one snapshot object on simulated shared memory ---- *)

let impls : (string * (module Snapshot.S)) list =
  [
    ("afek", (module Sim_afek));
    ("fig1", (module Sim_fig1));
    ("fig1-adaptive", (module Sim_fig1_adaptive));
    ("fig1-small", (module Sim_fig1_small));
    ("fig3", (module Sim_fig3));
    ("fig3-small", (module Sim_fig3_small));
    ("fig3-bounded-aset", (module Sim_fig3_bounded_aset));
    ("farray", (module Sim_farray));
    ("nonblocking", (module Sim_nonblocking));
    ("fig1-hardened", (module Sim_fig1_hardened));
    ("fig3-hardened", (module Sim_fig3_hardened));
    ("fig3-selfcheck", (module Sim_fig3_selfcheck));
  ]

let layered = [ "sharded"; "sharded-relaxed"; "resilient"; "durable"; "txn" ]

let impl_names = List.map fst impls @ layered

let flat c =
  let sharded = c.impl = "sharded" || c.impl = "sharded-relaxed" in
  let (module S : Snapshot.S) =
    if sharded then
      (module Runtime.Sharded.Make (Mem.Sim) (Sim_fig3)
                (struct
                  let shards = c.shards
                  let partition = `Round_robin
                  let mode = if c.impl = "sharded" then `Validated else `Relaxed
                end))
    else
      match List.assoc_opt c.impl impls with
      | Some m -> m
      | None ->
        usage "unknown --impl %S (choose from: %s)" c.impl
          (String.concat ", " impl_names)
  in
  let n = c.updaters + c.scanners in
  let worst = ref 0 in
  let unsound =
    if c.impl = "sharded-relaxed" then
      Some "relaxed scans skip the cross-shard epoch validation"
    else if mem_kinds c <> None && not (String.ends_with ~suffix:"hardened" c.impl)
    then Some "raw registers under memory faults"
    else None
  in
  make ~name:S.name
    ~reads:
      ([ "impl"; "m"; "r"; "crash-at" ] @ mem_flags
      @ if sharded then [ "shards" ] else [])
    ~checked:c.check ?unsound ~pp_violation:Snapshot_spec.pp_violation
    ~nemesis:(fun ~seed:_ w ->
      match c.crash_at with
      | Some at_clock -> Scheduler.with_crash ~pid:0 ~at_clock w
      | None -> w)
    ~counters:(fun () ->
      let sv = Metrics.serving () in
      [
        o "crash_at" c.crash_at;
        i "shards" c.shards;
        i "worst_collects" !worst;
        i "scan_rounds" sv.Metrics.scan_rounds;
        i "scan_retries" sv.scan_retries;
      ]
      @ mem_fault_counters ()
      @ [
          i "hardened_repairs"
            (Metrics.mem_faults ()).hardened.Mem.Hardened.repairs;
        ])
    (fun rec_ ->
      let hist = History.create ~now:Sim.mark () in
      let t = S.create ~n (init c) in
      (* a restarted pid rebuilds its handle, writing incarnation-tagged
         values so every written value stays unique *)
      let body ~incarnation pid () =
        let h = S.handle t ~pid in
        snapshot_body c rec_ hist ~pid ~incarnation ~update:(S.update h)
          ~scan:(fun idxs ->
            let vs = S.scan h idxs in
            worst := max !worst (S.last_scan_collects h);
            vs)
          ()
      in
      {
        procs = Array.init n (body ~incarnation:1);
        recover = (fun ~pid ~incarnation -> body ~incarnation pid);
        check = (if c.check then observe c hist else fun () -> []);
      })

(* ---- resilient: the supervised sharded front ----

   Scans return an explicit [Atomic | Degraded] outcome: every Atomic scan
   must linearize, every scan must respect the round budget, Degraded
   scans are counted but never checked (their cross-shard view is allowed
   to skew — that is what the flag means), and with --stick-epoch the
   campaign must witness a completed shard rebuild followed by
   fully-validated scans of the rebuilt shard. *)

let resilient c =
  let module RS =
    Runtime.Resilient.Make (Mem.Sim) (Sim_fig3_selfcheck) (Sim_fig3_hardened)
      (struct
        let shards = c.shards
        let partition = `Round_robin
        let max_rounds = c.max_rounds
        let backoff_base = 2
        let backoff_max = 16
        let breaker_threshold = 3
        let breaker_cooldown = 4
        let probe_successes = 2
        let heal_quiesce = 64
      end)
  in
  let n = c.updaters + c.scanners in
  let atomic = ref 0 and degraded = ref 0 and overruns = ref 0 in
  let post_heal = ref 0 and worst_rounds = ref 0 and worst = ref 0 in
  let layer flag f w = match flag with Some x -> f x w | None -> w in
  make ~name:RS.name
    ~reads:
      ([ "impl"; "m"; "r"; "shards"; "stick-epoch"; "stall-shard"; "slow-pid";
         "max-rounds" ]
      @ mem_flags)
    ~verdict:"linearizable (observation check of the atomic scans)"
    ~pp_violation:Snapshot_spec.pp_violation
    ~nemesis:(fun ~seed:_ w ->
      w
      |> layer c.stick_epoch (fun sh w ->
             Scheduler.mem_fault_on_cell ~kind:Event.Stuck_cell
               ~name_prefix:(Printf.sprintf "rshard%d.epoch" sh)
               w)
      |> layer c.stall_shard (fun shard w ->
             Scheduler.stall_shard ~shard ~from_clock:50 ~until_clock:450 w)
      |> layer c.slow_pid (fun pid w -> Scheduler.slow_domain ~pid w))
    ~counters:(fun () ->
      let sv = Metrics.serving () in
      [
        i "shards" c.shards;
        o "stick_epoch" c.stick_epoch;
        o "stall_shard" c.stall_shard;
        o "slow_pid" c.slow_pid;
        i "max_rounds" c.max_rounds;
        i "atomic_scans" !atomic;
        i "degraded_scans" !degraded;
        i "budget_overruns" !overruns;
        i "post_heal_atomic_scans" !post_heal;
        i "worst_rounds" !worst_rounds;
        i "worst_collects" !worst;
        i "scan_rounds" sv.Metrics.scan_rounds;
        i "scan_retries" sv.scan_retries;
        i "backoff_steps" sv.backoff_steps;
        i "breaker_opens" sv.breaker_opens;
        i "breaker_half_opens" sv.breaker_half_opens;
        i "breaker_closes" sv.breaker_closes;
        i "heals_started" sv.heals_started;
        i "heals_completed" sv.heals_completed;
        i "heals_aborted" sv.heals_aborted;
        i "stuck_epochs" sv.stuck_epochs;
      ]
      @ mem_fault_counters ())
    ~accept:(fun ~replaying:_ ->
      let fail why = print_endline why; false in
      if !overruns > 0 then
        fail
          (Printf.sprintf "budget: %d scans exceeded %d rounds" !overruns
             c.max_rounds)
      else if c.stick_epoch = None then true
      else if (Metrics.serving ()).heals_completed = 0 then
        fail "heal: stuck epoch injected but no shard rebuild completed"
      else if !post_heal = 0 then
        fail "heal: shard rebuilt but no validated scan touched it afterwards"
      else true)
    (fun rec_ ->
      let hist = History.create ~now:Sim.mark () in
      (* Atomic scans are appended as hand-built entries: Degraded scans
         must not reach the checker, and History.record cannot un-record
         an operation after its outcome is known. *)
      let atomic_entries = ref [] in
      Mem.Hardened.reset_stats ();
      let t = RS.create ~n (init c) in
      let scanner pid =
        let h = RS.handle t ~pid in
        let idxs = window c pid in
        for _ = 1 to c.scans do
          let inv, out, resp =
            Metrics.measure rec_ ~pid ~kind:"scan" (fun () ->
                let inv = Sim.mark () in
                let out = RS.scan_outcome h idxs in
                (inv, out, Sim.mark ()))
          in
          let rounds = RS.last_scan_rounds h in
          worst_rounds := max !worst_rounds rounds;
          worst := max !worst (RS.last_scan_collects h);
          if rounds > c.max_rounds then incr overruns;
          match out with
          | RS.Atomic vs ->
            incr atomic;
            atomic_entries :=
              {
                History.pid;
                op = Snapshot_spec.Scan idxs;
                res = Some (Snapshot_spec.Vals vs);
                inv;
                resp = Some resp;
              }
              :: !atomic_entries;
            (match c.stick_epoch with
            | Some s
              when s < RS.nshards t
                   && Array.exists (fun i -> i mod RS.nshards t = s) idxs
                   && RS.shard_gen t ~pid s > 1 ->
              incr post_heal
            | _ -> ())
          | RS.Degraded _ -> incr degraded
        done
      in
      let body ~incarnation pid () =
        if pid < c.updaters then
          let h = RS.handle t ~pid in
          updates c ~pid ~incarnation (record_update rec_ hist ~pid (RS.update h))
        else scanner pid
      in
      {
        procs = Array.init n (body ~incarnation:1);
        recover = (fun ~pid ~incarnation -> body ~incarnation pid);
        check =
          (fun () ->
            Snapshot_spec.check_observations ~init:(init c)
              (History.entries hist @ !atomic_entries));
      })

(* ---- durable: Figure 3 behind a write-ahead log ----

   Volatile memory is paired with a storage device that survives power
   losses.  A restarted fiber first asks the device whether a blackout
   condemned the in-memory state (the loss counter moved): if so, the
   first such fiber rebuilds the object from the log — step-free, hence
   atomic under the simulator — and later fibers adopt it; if not (a plain
   crash–restart), the object survives and an updater merely completes
   any commit intent its dead incarnation left published in the lock.
   History recording continues across the blackout, so the checker sees
   pre-loss acknowledgements next to post-recovery scans and flags any
   committed-then-lost or resurrected-uncommitted value. *)

let power_mode c =
  match c.power_loss with
  | "none" -> `None
  | "storm" -> `Storm
  | "sweep" -> `Sweep
  | s -> (
    match int_of_string_opt s with
    | Some k when k >= 0 -> `At k
    | _ ->
      usage
        "unknown --power-loss %S (choose from: none, storm, sweep, or a \
         clock value)"
        s)

(* Composed last, so replayed schedules carry the [powerloss] decision
   like any other fault. *)
let power_nemesis mode ~seed w =
  match mode with
  | `None | `Sweep -> w
  | `At at_clock -> Scheduler.power_loss_at ~at_clock w
  | `Storm -> Scheduler.power_storm ~seed w

let durable c =
  let module D = Sim_durable_fig3 in
  let module St = Persist.Storage.Sim in
  let write_ahead =
    choose "--wal-mode" [ ("write-ahead", true); ("late-log", false) ] c.wal_mode
  in
  let config = { D.checkpoint_every = c.checkpoint_every; write_ahead } in
  let power = power_mode c in
  let n = c.updaters + c.scanners in
  let worst = ref 0 in
  make ~name:D.name
    ~reads:
      ([ "impl"; "m"; "r"; "power-loss"; "checkpoint-every"; "wal-mode" ]
      @ mem_flags)
    ~verdict:"durably linearizable (observation check)" ~absorbs_crashes:true
    ?unsound:
      (if write_ahead then None
       else Some "late-log mode acknowledges before the barrier")
    ~pp_violation:Snapshot_spec.pp_violation ~nemesis:(power_nemesis power)
    ~sweep:(fun res ->
      (* a blackout at every schedule point of the seed's baseline run *)
      if power <> `Sweep then []
      else
        List.init (res.Sim.clock - 1) (fun k ->
            ( Printf.sprintf "power-loss@%d" (k + 1),
              Scheduler.power_loss_at ~at_clock:(k + 1) )))
    ~counters:(fun () ->
      let dm = Metrics.durable () in
      [
        s "power_loss" c.power_loss;
        s "wal_mode" c.wal_mode;
        i "checkpoint_every" c.checkpoint_every;
        i "worst_collects" !worst;
        i "power_losses" dm.Metrics.power_losses;
        i "recoveries" dm.recoveries;
        i "replayed_updates" dm.replayed_updates;
        i "wal_appends" dm.wal_appends;
        i "wal_syncs" dm.wal_syncs;
        i "wal_bytes" dm.wal_bytes;
        i "commits" dm.commits;
        i "checkpoints" dm.checkpoints;
        i "torn_records" dm.torn_records;
        i "corrupt_records" dm.corrupt_records;
        i "truncated_bytes" dm.truncated_bytes;
      ])
    ~accept:(fun ~replaying ->
      let dm = Metrics.durable () in
      match power with
      | `Sweep when dm.Metrics.recoveries = 0 && not replaying ->
        print_endline
          "recovery: power-loss sweep completed without a single rebuild";
        false
      | `Storm when dm.Metrics.power_losses = 0 && not replaying ->
        print_endline
          "power-loss: storm requested but no blackout fired (run too short?)";
        true
      | _ -> true)
    (fun rec_ ->
      let hist = History.create ~now:Sim.mark () in
      St.reset ();
      let cur = ref (D.create_with ~config ~n (init c)) in
      let seen_losses = ref 0 in
      (* runs in a restarted fiber's step-free prefix: no peer can observe
         a half-recovered object *)
      let rebuild_if_power_lost () =
        let l = St.losses (D.storage !cur) in
        if l > !seen_losses then begin
          seen_losses := l;
          cur := D.recover ~config (D.storage !cur) ~n (init c)
        end
      in
      let body ~incarnation pid () =
        if incarnation > 1 then rebuild_if_power_lost ();
        let h = D.handle !cur ~pid in
        (* after a plain crash–restart the commit lock may still hold this
           pid's published intent; after a power loss this is a no-op *)
        if incarnation > 1 && pid < c.updaters then D.resume h;
        snapshot_body c rec_ hist ~pid ~incarnation ~update:(D.update h)
          ~scan:(fun idxs ->
            let vs = D.scan h idxs in
            worst := max !worst (D.last_scan_collects h);
            vs)
          ()
      in
      {
        procs = Array.init n (body ~incarnation:1);
        recover = (fun ~pid ~incarnation -> body ~incarnation pid);
        check = observe c hist;
      })

(* ---- txn: MVCC transactions under the snapshot-isolation oracle ----

   Updaters run read-modify-write transactions, scanners read-only ones
   over their window.  Every transaction begun is harvested after the run
   (its outcome is a mutable field, so even one whose fiber crashed
   reports its final state) and the observations go through
   [Si_check.check]: visibility per begin snapshot plus no lost updates.
   --txn-mode lww skips first-committer-wins validation to show the
   oracle catches lost updates. *)

let txn c =
  let module T = Sim_txn_fig3 in
  let mode =
    match Txn.mode_of_string c.txn_mode with
    | Some mode -> mode
    | None -> usage "unknown --txn-mode %S (choose from: fcw, lww)" c.txn_mode
  in
  let n = c.updaters + c.scanners in
  make ~name:T.name
    ~reads:([ "impl"; "m"; "r"; "txn-mode" ] @ mem_flags)
    ~verdict:"snapshot-isolated (SI observation check)" ~absorbs_crashes:true
    ?unsound:
      (if mode = Txn.Lww then
         Some "last-writer-wins skips first-committer-wins validation"
       else None)
    ~pp_violation:(Si_check.pp_violation Format.pp_print_int)
    ~counters:(fun () ->
      let tm = Metrics.txn () in
      [
        s "txn_mode" (Txn.mode_to_string mode);
        i "begins" tm.Metrics.begins;
        i "ro_commits" tm.ro_commits;
        i "rw_commits" tm.rw_commits;
        i "conflicts" tm.conflicts;
        i "busy_aborts" tm.busy_aborts;
        i "voluntary_aborts" tm.voluntary_aborts;
        ("abort_rate", Printf.sprintf "%.4f" (Metrics.txn_abort_rate tm));
        i "lww_overwrites" tm.lww_overwrites;
        i "resumes" tm.resumes;
        i "pruned_versions" tm.pruned_versions;
      ])
    (fun rec_ ->
      let t = T.create ~mode ~n (init c) in
      (* every transaction ever begun, plus observations synthesized by
         [resume] for commits rolled forward past a crash *)
      let txns = ref [] and resumed = ref [] in
      let begin_ h =
        let x = T.begin_ h in
        txns := x :: !txns;
        x
      in
      let body ~incarnation pid () =
        let h = T.handle t ~pid in
        (* a dead scanner's announce slot pins the pruning watermark too *)
        if incarnation > 1 then
          Option.iter (fun o -> resumed := o :: !resumed) (T.resume h);
        if pid < c.updaters then
          updates c ~pid ~incarnation (fun i v ->
              Metrics.measure rec_ ~pid ~kind:"rw-txn" (fun () ->
                  let x = begin_ h in
                  (* read-modify-write: the canonical lost-update shape *)
                  ignore (T.read x i);
                  T.write x i v;
                  ignore (T.commit x)))
        else
          let idxs = window c pid in
          for _ = 1 to c.scans do
            Metrics.measure rec_ ~pid ~kind:"ro-txn" (fun () ->
                let x = begin_ h in
                ignore (T.read_many x idxs);
                ignore (T.commit x))
          done
      in
      let check () =
        (* the txn record is richer (it has the reads); a resume
           observation of the same txid only fills in a crashed fiber's
           silence *)
        let seen = Hashtbl.create 64 in
        List.filter
          (fun (o : int Si_check.obs) ->
            (not (Hashtbl.mem seen o.txid)) && (Hashtbl.add seen o.txid (); true))
          (List.filter_map T.observation !txns @ !resumed)
        |> Si_check.check ~init:(init c)
      in
      {
        procs = Array.init n (body ~incarnation:1);
        recover = (fun ~pid ~incarnation -> body ~incarnation pid);
        check;
      })

(* ---- the quorum backend (docs/MODEL.md §14) ---- *)

module A = Net.Abd

(* Network fault effects summed over runs: each run's cluster resets the
   transport registry and its counters. *)
let harvest (injected, absorbed) =
  let inj, abs_ = Net.Transport.Sim.fault_counts () in
  injected := !injected + inj;
  absorbed := !absorbed + abs_

let net_counters (injected, absorbed) unavailable =
  [
    i "net_faults_injected" !injected;
    i "net_faults_absorbed" !absorbed;
    i "unavailable_ops" !unavailable;
  ]

let net_flags = [ "replicas"; "net-nemesis"; "net-rate" ]

(* [nodes] are every node of the cluster, [replica0] the first replica.
   The partition heal window must dwarf a quorum operation (tens of polls
   per phase times the attempt budget), or partitions heal before anyone
   notices: long windows are what starve a cut client into [Unavailable]
   — and what give weak mode's missing write-back time to surface as a
   new/old inversion. *)
let net_nemesis c ~nodes ~replica0 =
  let inflight = Net.Transport.Sim.inflight_links in
  choose "--net-nemesis"
    [
      ("none", fun ~seed:_ w -> w);
      ( "partition_storm",
        fun ~seed w ->
          Scheduler.partition_storm ~seed ~nodes ~rate:c.net_rate
            ~heal_after:4000 w );
      (* the targeted quorum-loss window: the first replica is gone *)
      ( "heal_after",
        fun ~seed:_ w ->
          Scheduler.heal_after ~victim:replica0 ~peers:nodes ~at_clock:60
            ~after:150 w );
      ( "dup_flood",
        fun ~seed w -> Scheduler.dup_flood ~seed ~inflight ~rate:c.net_rate w );
      ( "lag_spike",
        fun ~seed w -> Scheduler.lag_spike ~seed ~inflight ~rate:c.net_rate w );
    ]
    c.net_nemesis

let net_impls : (string * (module Snapshot.S)) list =
  let module Aset = Active_set.Bounded (A.Sim_mem) in
  [
    ("fig3", (module Sim_net_fig3));
    ("fig1", (module Snapshot.Fig1 (A.Sim_mem) (Aset)));
    ("afek", (module Snapshot.Afek (A.Sim_mem)));
    ("nonblocking", (module Snapshot.Nonblocking (A.Sim_mem)));
  ]

(* The snapshot workload over ABD quorum registers served by [replicas]
   replica fibers: crash nemeses may hit clients (their restart closes
   the session, their pending operation stays pending) and replicas
   (their restart resumes serving from the durable store); power loss
   halts both, and a replica's store cell survives it.  An unreachable
   majority surfaces as [Unavailable] through a per-client circuit
   breaker: the operation stays pending — exactly what the observation
   checker admits — and the client carries on. *)
let net c =
  let (module S : Snapshot.S) =
    choose "--impl (under --mem net)" net_impls c.impl
  in
  let mode = choose "--net-mode" [ ("abd", A.Abd); ("weak", A.Weak) ] c.net_mode in
  if c.replicas < 1 then usage "--replicas must be >= 1";
  let power = power_mode c in
  if power = `Sweep then usage "--power-loss sweep needs --impl durable";
  let n = c.updaters + c.scanners in
  let nodes = List.init (n + c.replicas) Fun.id in
  let net_nemesis = net_nemesis c ~nodes ~replica0:n in
  let faults = (ref 0, ref 0) and unavailable = ref 0 and worst = ref 0 in
  make ~name:S.name
    ~reads:([ "impl"; "mem"; "m"; "r"; "net-mode"; "power-loss" ] @ net_flags)
    ~checked:c.check ~absorbs_crashes:true
    ?unsound:
      (if mode = A.Weak then Some "weak reads skip the write-back" else None)
    ~pp_violation:Snapshot_spec.pp_violation
    ~nemesis:(fun ~seed w -> power_nemesis power ~seed (net_nemesis ~seed w))
    ~counters:(fun () ->
      let nm = Metrics.net () and sv = Metrics.serving () in
      [
        s "mem" "net";
        s "net_mode" c.net_mode;
        i "replicas" c.replicas;
        s "net_nemesis" c.net_nemesis;
        s "power_loss" c.power_loss;
        i "worst_collects" !worst;
        i "sends" nm.Metrics.sends;
        i "delivers" nm.delivers;
        i "net_drops" nm.drops;
        i "net_dups" nm.dups;
        i "net_delays" nm.delays;
        i "net_cuts" nm.cuts;
        i "net_heals" nm.heals;
        i "quorum_rounds" nm.rounds;
        i "resends" nm.resends;
        i "writebacks" nm.writebacks;
        i "writeback_skips" nm.writeback_skips;
        i "quorum_ops" nm.quorum_ops;
        ("mean_quorum_wait", Printf.sprintf "%.2f" (Metrics.mean_quorum_wait nm));
        i "breaker_opens" sv.Metrics.breaker_opens;
        i "breaker_half_opens" sv.breaker_half_opens;
        i "breaker_closes" sv.breaker_closes;
      ]
      @ net_counters faults unavailable)
    (fun rec_ ->
      let hist = History.create ~now:Sim.mark () in
      let cl = A.cluster ~mode ~clients:n ~replicas:c.replicas () in
      let t = S.create ~n (init c) in
      let attempt f =
        try f () with Net.Unavailable _ -> incr unavailable
      in
      let client pid () =
        let h = S.handle t ~pid in
        snapshot_body c rec_ hist ~attempt ~pid ~incarnation:1 ~update:(S.update h)
          ~scan:(fun idxs ->
            let vs = S.scan h idxs in
            worst := max !worst (S.last_scan_collects h);
            vs)
          ()
      in
      let replica pid = A.replica_body cl ~index:(pid - n) in
      {
        procs =
          Array.init (n + c.replicas) (fun pid ->
              if pid < n then A.wrap_client cl ~pid (client pid) else replica pid);
        recover =
          (fun ~pid ~incarnation:_ ->
            if pid < n then A.close_client cl ~pid else replica pid);
        check =
          (fun () ->
            harvest faults;
            if c.check then observe c hist () else []);
      })

(* ---- reconfig: online reconfiguration (docs/MODEL.md §16) ----

   Workload chosen for oracle soundness: [updaters] writer clients each
   own one register and write 1..[updates] monotonically, halting on the
   first [Unavailable] (a writer that pushed past one could burn the same
   timestamp twice — equal tags carrying different values — which makes
   any monotonicity oracle unsound); [scanners] reader clients poll the
   writers' registers.  Three oracles:

   - lost write: a writer's final read-back must never run below its last
     acked write (the E21 naive-mode conviction);
   - monotonicity: per (reader, register) observed values never step
     backwards across reconfigurations;
   - exact linearizability (--check): per register, a Wing–Gong check
     over the recorded history with [Unavailable] operations left
     pending.

   RMW is excluded on purpose: at-most-once across a membership change
   would need the home replica's dedup entry to reach the collect quorum,
   which a reply lost before the transfer can defeat (documented in
   Net_abd). *)

module Reg_spec = struct
  type state = int
  type op = Rwrite of int | Rread
  type res = Rack | Rval of int

  let apply s = function Rwrite v -> (v, Rack) | Rread -> (s, Rval s)
  let equal_res (a : res) (b : res) = a = b
end

module Reg_lin = Lin_check.Make (Reg_spec)

let reconfig c =
  let module R = Net.Reconfig in
  let rmode =
    choose "--reconfig" [ ("fenced", R.Fenced); ("naive", R.Naive) ] c.reconfig
  in
  if c.replicas < 1 then usage "--replicas must be >= 1";
  if c.spares < 0 then usage "--spares must be >= 0";
  if c.updaters < 1 then usage "--reconfig needs at least one updater (writer)";
  let clients = c.updaters + c.scanners in
  let pool = c.replicas + c.spares in
  let nprocs = clients + pool + 1 (* + membership manager *) in
  let members = List.init c.replicas (fun i -> clients + i) in
  let nodes = List.init nprocs Fun.id in
  let net_nemesis = net_nemesis c ~nodes ~replica0:clients in
  let reconfig_nemesis =
    choose "--reconfig-nemesis"
      [
        ("none", fun ~seed:_ w -> w);
        ( "replica_death",
          fun ~seed w ->
            Scheduler.replica_death ~seed ~victims:members ~rate:0.01
              ~max_deaths:c.replica_death w );
        ( "rolling_restart",
          fun ~seed:_ w ->
            Scheduler.rolling_restart ~victims:members ~start_at:60 ~gap:120
              ~down_for:80 w );
        ( "config_churn",
          fun ~seed w -> Scheduler.config_churn ~seed ~rate:0.004 ~max_reconfigs:2 w
        );
        (* The E21 recipe.  Writer 0's link to the last initial member is
           cut for the whole run (that member's copy of each of writer 0's
           writes hangs in flight), one churned rotation swaps the first
           member for a spare, and the other initial members — a majority
           — die permanently.  Unfenced, the old quorum keeps committing
           writer 0's writes after the rotation's state transfer; readers
           chased onto the new configuration by the deaths meet the
           transfer snapshot (the swapped-in spare) plus the cut member's
           pre-cut state, both predating those commits — the lost write.
           Fenced, the same schedule seals the old epoch first, so writer
           0 either commits under the new epoch or goes Unavailable. *)
        ( "split_brain",
          fun ~seed w ->
            let majority = (c.replicas / 2) + 1 in
            let victims = List.filteri (fun i _ -> i < majority) members in
            let survivor = clients + c.replicas - 1 in
            Scheduler.config_churn ~seed ~rate:0.01 ~max_reconfigs:1
              (Scheduler.replica_death ~seed:(seed + 1) ~victims ~rate:0.0005
                 ~max_deaths:majority
                 (Scheduler.heal_after ~victim:0 ~peers:[ survivor ] ~at_clock:40
                    ~after:1_000_000 w)) );
      ]
      c.reconfig_nemesis
  in
  let faults = (ref 0, ref 0) and unavailable = ref 0 in
  let lost_writes = ref 0 and inversions = ref 0 in
  let lin_fails = ref 0 and lin_skipped = ref 0 and max_epoch = ref 0 in
  make
    ~name:("abd-reconfig/" ^ c.reconfig)
    ~reads:([ "spares"; "reconfig-nemesis"; "replica-death" ] @ net_flags)
    ~absorbs_crashes:true
    ~verdict:
      ("safe across reconfiguration (lost-write + monotonicity"
      ^ (if c.check then " + per-register linearizability" else "")
      ^ ")")
    ?unsound:
      (if rmode = R.Naive then
         Some "the naive mode swaps membership without the epoch fence"
       else None)
    ~pp_violation:Fmt.string
    ~nemesis:(fun ~seed w -> reconfig_nemesis ~seed (net_nemesis ~seed w))
    ~counters:(fun () ->
      let rm = Metrics.reconfig () in
      [
        s "mem" "net";
        s "reconfig" c.reconfig;
        i "replicas" c.replicas;
        i "spares" c.spares;
        s "net_nemesis" c.net_nemesis;
        s "reconfig_nemesis" c.reconfig_nemesis;
        i "lost_writes" !lost_writes;
        i "inversions" !inversions;
        i "lin_violations" !lin_fails;
        i "lin_skipped" !lin_skipped;
        i "reconfigs" rm.Metrics.reconfigs;
        i "seals" rm.seals;
        i "transfers" rm.transfers;
        i "activations" rm.activations;
        i "stale_rejects" rm.stale_rejects;
        i "epoch_chases" rm.epoch_chases;
        i "suspicions" rm.suspicions;
        i "replacements" rm.replacements;
        i "churn_requests" rm.churn_requests;
        i "naive_swaps" rm.naive_swaps;
        i "max_epoch" !max_epoch;
      ]
      @ net_counters faults unavailable)
    (fun _ ->
      let cl = A.cluster ~clients ~replicas:c.replicas ~spares:c.spares
          ~with_manager:true ()
      in
      let rc = R.attach ~mode:rmode cl in
      let regs =
        Array.init c.updaters (fun w ->
            A.Sim_mem.make ~name:(Printf.sprintf "reconfig.reg.%d" w) 0)
      in
      let hists =
        Array.init c.updaters (fun _ -> History.create ~now:Sim.mark ())
      in
      let last_acked = Array.make c.updaters 0 in
      let viols = ref [] in
      let violation count fmt =
        Printf.ksprintf (fun v -> incr count; viols := v :: !viols) fmt
      in
      let read w pid =
        History.record hists.(w) ~pid Reg_spec.Rread (fun () ->
            Reg_spec.Rval (A.Sim_mem.read regs.(w)))
      in
      let writer pid () =
        (try
           for k = 1 to c.updates do
             ignore
               (History.record hists.(pid) ~pid (Reg_spec.Rwrite k) (fun () ->
                    A.Sim_mem.write regs.(pid) k;
                    Reg_spec.Rack));
             last_acked.(pid) <- k
           done
         with Net.Unavailable _ -> incr unavailable);
        match read pid pid with
        | Reg_spec.Rval v when v < last_acked.(pid) ->
          violation lost_writes
            "writer %d: read-back %d below last acked write %d (LOST WRITE)" pid
            v last_acked.(pid)
        | _ -> ()
        | exception Net.Unavailable _ -> incr unavailable
      in
      let reader pid () =
        let lastseen = Array.make c.updaters 0 in
        for j = 1 to c.scans do
          let w = (pid + j) mod c.updaters in
          match read w pid with
          | Reg_spec.Rval v when v < lastseen.(w) ->
            violation inversions
              "reader %d: register %d went backwards %d -> %d (stale quorum)"
              pid w lastseen.(w) v
          | Reg_spec.Rval v -> lastseen.(w) <- v
          | Reg_spec.Rack -> ()
          | exception Net.Unavailable _ -> incr unavailable
        done
      in
      (* crashed clients restart only to close their session; crashed
         replicas resume from their durable store cell; a crashed manager
         re-drives any interrupted reconfiguration from its durable
         state *)
      let server pid =
        if pid < clients + pool then A.replica_body cl ~index:(pid - clients)
        else R.manager_body rc
      in
      let check () =
        R.detach rc;
        harvest faults;
        for pid = 0 to clients - 1 do
          max_epoch := max !max_epoch (A.client_epoch cl ~pid)
        done;
        if c.check then
          Array.iteri
            (fun w h ->
              match Reg_lin.check ~init:0 (History.entries h) with
              | true -> ()
              | false ->
                violation lin_fails "register %d: history not linearizable" w
              | exception Reg_lin.Too_long n ->
                incr lin_skipped;
                Printf.printf "lin check skipped for register %d (%d entries)\n"
                  w n)
            hists;
        List.rev !viols
      in
      {
        procs =
          Array.init nprocs (fun pid ->
              if pid < c.updaters then A.wrap_client cl ~pid (writer pid)
              else if pid < clients then A.wrap_client cl ~pid (reader pid)
              else server pid);
        recover =
          (fun ~pid ~incarnation:_ ->
            if pid < clients then A.close_client cl ~pid else server pid);
        check;
      })

(* ---- the command line ---- *)

let flag kind name ?(docv = "VAL") doc get set =
  Flag { name; docv; doc; kind; get; set }

let choices what names = Printf.sprintf "%s: %s." what (String.concat ", " names)

let flags =
  [
    flag Text "impl" ~docv:"NAME" (choices "Implementation" impl_names)
      (fun c -> c.impl)
      (fun c impl -> { c with impl });
    flag Int "shards" ~docv:"S"
      "Shard count for the sharded implementations (fig3 instances behind \
       round-robin placement)."
      (fun c -> c.shards)
      (fun c shards -> { c with shards });
    flag Int "m" "Vector size." (fun c -> c.m) (fun c m -> { c with m });
    flag Int "r" "Components per scan." (fun c -> c.r) (fun c r -> { c with r });
    flag Int "updaters" "Updater processes." (fun c -> c.updaters)
      (fun c updaters -> { c with updaters });
    flag Int "updates" "Updates per updater." (fun c -> c.updates)
      (fun c updates -> { c with updates });
    flag Int "scanners" "Scanner processes." (fun c -> c.scanners)
      (fun c scanners -> { c with scanners });
    flag Int "scans" "Scans per scanner." (fun c -> c.scans)
      (fun c scans -> { c with scans });
    flag Text "sched" (choices "Scheduler" Campaign.scheds) (fun c -> c.sched)
      (fun c sched -> { c with sched });
    flag Int "seed" ~docv:"N" "Base seed; execution $(i,k) uses seed N+k."
      (fun c -> c.seed_base)
      (fun c seed_base -> { c with seed_base });
    flag Int "seeds" "Seeded executions." (fun c -> c.seeds)
      (fun c seeds -> { c with seeds });
    flag Switch "check" "Validate histories (observation checker)."
      (fun c -> c.check)
      (fun c check -> { c with check });
    flag Some_int "crash-at" ~docv:"CLOCK"
      "Crash process 0 at this step (permanent halting failure)."
      (fun c -> c.crash_at)
      (fun c crash_at -> { c with crash_at });
    flag Text "nemesis" ~docv:"NAME"
      (choices "Fault injector layered over the scheduler" Campaign.nemeses
      ^ "  Crashed processes restart on a recovery body that rebuilds local \
         state from scratch.")
      (fun c -> c.nemesis)
      (fun c nemesis -> { c with nemesis });
    flag Text "mem-faults" ~docv:"KINDS"
      "Memory-fault storm over the base scheduler: comma-separated fault \
       kinds from lose (silently dropped writes), stale (superseded values \
       served once), corrupt (stored value garbled), stick (cell stops \
       accepting writes); or $(b,all).  Composable with $(b,--nemesis) and \
       $(b,--shrink)."
      (fun c -> c.mem_faults)
      (fun c mem_faults -> { c with mem_faults });
    flag Float "mem-rate" ~docv:"P"
      "Per-decision-point injection probability for --mem-faults."
      (fun c -> c.mem_rate)
      (fun c mem_rate -> { c with mem_rate });
    flag Int "mem-max" ~docv:"N" "Maximum memory faults injected per run."
      (fun c -> c.mem_max)
      (fun c mem_max -> { c with mem_max });
    flag Switch "expect-violations"
      "Invert the checker's exit status: succeed only if at least one \
       violation occurred (used to show that a deliberately unsound mode \
       fails its oracle)."
      (fun c -> c.expect_violations)
      (fun c expect_violations -> { c with expect_violations });
    flag Switch "shrink"
      "On a checker violation, delta-debug the recorded schedule to a \
       minimal failing decision list and print it (saved to \
       $(b,--replay-file) if given)."
      (fun c -> c.shrink)
      (fun c shrink -> { c with shrink });
    flag Some_text "replay-file" ~docv:"FILE"
      "Without $(b,--shrink): replay the schedule stored in FILE instead of \
       running seeded executions.  With $(b,--shrink): write the minimal \
       failing schedule to FILE."
      (fun c -> c.replay_file)
      (fun c replay_file -> { c with replay_file });
    flag Some_text "json" ~docv:"FILE"
      "Write a machine-readable campaign summary to FILE."
      (fun c -> c.json)
      (fun c json -> { c with json });
    flag Some_int "stick-epoch" ~docv:"SHARD"
      "($(b,--impl resilient) only) Stick shard SHARD's epoch cell at its \
       first access: updates keep drawing duplicate epochs until the \
       stuck-epoch detector triggers a shard rebuild.  The campaign then \
       requires at least one completed rebuild and a fully-validated scan \
       of the rebuilt shard."
      (fun c -> c.stick_epoch)
      (fun c stick_epoch -> { c with stick_epoch });
    flag Some_int "stall-shard" ~docv:"SHARD"
      "($(b,--impl resilient) only) Latency nemesis: withhold every access \
       to shard SHARD's cells during clock window [50, 450], running other \
       processes instead."
      (fun c -> c.stall_shard)
      (fun c stall_shard -> { c with stall_shard });
    flag Some_int "slow-pid" ~docv:"PID"
      "($(b,--impl resilient) only) Latency nemesis: let PID take only \
       every 8th of its scheduled steps (a slow domain)."
      (fun c -> c.slow_pid)
      (fun c slow_pid -> { c with slow_pid });
    flag Int "max-rounds" ~docv:"N"
      "($(b,--impl resilient) only) Scan round budget: a validated \
       cross-shard scan degrades explicitly after N rounds."
      (fun c -> c.max_rounds)
      (fun c max_rounds -> { c with max_rounds });
    flag Text "power-loss" ~docv:"MODE"
      "($(b,--impl durable) or $(b,--mem net)) Power-loss fault injection: \
       $(b,none); a clock value (one blackout at that step: every device \
       drops its un-synced write cache except a torn fragment, every \
       process crashes and restarts on a recovery body); $(b,storm) \
       (seeded random blackouts); $(b,sweep) ($(b,--impl durable) only: per \
       seed, one baseline run plus one run with a blackout at every \
       schedule point — the exhaustive recovery campaign)."
      (fun c -> c.power_loss)
      (fun c power_loss -> { c with power_loss });
    flag Int "checkpoint-every" ~docv:"N"
      "($(b,--impl durable) only) Seal a checkpoint every N commits (0 = \
       log-only, never checkpoint)."
      (fun c -> c.checkpoint_every)
      (fun c checkpoint_every -> { c with checkpoint_every });
    flag Text "wal-mode" ~docv:"MODE"
      "($(b,--impl durable) only) $(b,write-ahead) (sound: append + sync \
       before the update is applied or acknowledged) or $(b,late-log) \
       (deliberately unsound: apply first, log after — exists to show the \
       power-loss campaign catches committed-then-lost bugs; pair with \
       $(b,--expect-violations))."
      (fun c -> c.wal_mode)
      (fun c wal_mode -> { c with wal_mode });
    flag Text "mem" ~docv:"BACKEND"
      "Memory backend: $(b,sim) (the step-counting shared memory) or \
       $(b,net) (ABD quorum registers replicated across $(b,--replicas) \
       crash-prone replica processes over the simulated message transport \
       — docs/MODEL.md section 14)."
      (fun c -> c.mem)
      (fun c mem -> { c with mem });
    flag Int "replicas" ~docv:"N"
      "($(b,--mem net) or $(b,--reconfig)) Replica processes backing each \
       register."
      (fun c -> c.replicas)
      (fun c replicas -> { c with replicas });
    flag Text "net-nemesis" ~docv:"NAME"
      "($(b,--mem net) or $(b,--reconfig)) Network fault injector layered \
       over the scheduler: $(b,none), $(b,partition_storm) (seeded \
       symmetric partitions that heal), $(b,heal_after) (one deterministic \
       quorum-loss window against the first replica), $(b,dup_flood) \
       (duplicate deliveries), $(b,lag_spike) (reordering bursts).  \
       Composable with $(b,--nemesis) and $(b,--shrink)."
      (fun c -> c.net_nemesis)
      (fun c net_nemesis -> { c with net_nemesis });
    flag Text "net-mode" ~docv:"MODE"
      "($(b,--mem net) only) $(b,abd) (sound: reads write back the maximal \
       value before returning) or $(b,weak) (deliberately unsound fast \
       reads without write-back — exhibits new/old inversion under \
       partitions; pair with $(b,--expect-violations))."
      (fun c -> c.net_mode)
      (fun c net_mode -> { c with net_mode });
    flag Float "net-rate" ~docv:"P"
      "Per-decision-point injection probability for --net-nemesis."
      (fun c -> c.net_rate)
      (fun c net_rate -> { c with net_rate });
    flag Text "txn-mode" ~docv:"MODE"
      "($(b,--impl txn) only) $(b,fcw) (sound: first-committer-wins \
       write-write validation at commit) or $(b,lww) (deliberately unsound \
       last-writer-wins: commit skips validation — exists to show the \
       snapshot-isolation oracle catches lost updates; pair with \
       $(b,--expect-violations))."
      (fun c -> c.txn_mode)
      (fun c txn_mode -> { c with txn_mode });
    flag Text "reconfig" ~docv:"MODE"
      "Online-reconfiguration campaign over the net backend (docs/MODEL.md \
       section 16): $(b,off), $(b,fenced) (sound: seal the old \
       configuration, state-transfer under the new epoch, epoch-fence \
       stale requests) or $(b,naive) (deliberately unsound: membership \
       swaps without the fence — a write concurrent with the transfer can \
       be lost; pair with $(b,--expect-violations)).  Writers are \
       $(b,--updaters) x $(b,--updates), readers $(b,--scanners) x \
       $(b,--scans)."
      (fun c -> c.reconfig)
      (fun c reconfig -> { c with reconfig });
    flag Int "spares" ~docv:"N"
      "($(b,--reconfig) only) Spare pool replicas available for promotion \
       by replacement and rotation configurations."
      (fun c -> c.spares)
      (fun c spares -> { c with spares });
    flag Text "reconfig-nemesis" ~docv:"NAME"
      "($(b,--reconfig) only) Membership fault injector: $(b,none), \
       $(b,replica_death) (seeded permanent crashes of initial members, \
       capped by $(b,--replica-death)), $(b,rolling_restart) \
       (deterministic maintenance roll), $(b,config_churn) (seeded Reconfig \
       decisions — rotations under load), $(b,split_brain) (one churned \
       rotation plus permanent death of a majority of the initial members \
       — the E21 recipe).  Composable with $(b,--nemesis), \
       $(b,--net-nemesis) and $(b,--shrink)."
      (fun c -> c.reconfig_nemesis)
      (fun c reconfig_nemesis -> { c with reconfig_nemesis });
    flag Int "replica-death" ~docv:"N"
      "Maximum permanent replica deaths injected by $(b,--reconfig-nemesis \
       replica_death)."
      (fun c -> c.replica_death)
      (fun c replica_death -> { c with replica_death });
  ]

(* Every scenario runs the workload and the campaign these shape. *)
let common =
  [ "updaters"; "updates"; "scanners"; "scans"; "sched"; "seed"; "seeds";
    "check"; "nemesis"; "expect-violations"; "shrink"; "replay-file"; "json";
    "reconfig" ]

(* ---- selection ---- *)

type any = Any : 'v Scenario.t -> any

let select c =
  if c.reconfig <> "off" then Any (reconfig c)
  else
    match c.mem with
    | "net" when List.mem c.impl layered ->
      usage "--mem net does not support --impl %s" c.impl
    | "net" -> Any (net c)
    | "sim" -> (
      match c.impl with
      | "resilient" -> Any (resilient c)
      | "durable" -> Any (durable c)
      | "txn" -> Any (txn c)
      | _ -> Any (flat c))
    | m -> usage "unknown --mem %S (choose from: sim, net)" m

let of_config c =
  let (Any t) as any = select c in
  List.iter
    (fun (Flag f) ->
      let read = List.mem f.name common || List.mem f.name t.reads in
      if not (read || f.get c = f.get default) then
        usage "--%s has no effect on the %s campaign; drop it" f.name t.name)
    flags;
  any
