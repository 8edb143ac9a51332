open Psnap
open Scenario

let base_scheds c =
  let scanner_pids = List.init c.scanners (fun j -> c.updaters + j) in
  let updater_pids = List.init c.updaters Fun.id in
  [
    ("random", fun ~seed -> Scheduler.random ~seed ());
    ("bursty", fun ~seed -> Scheduler.bursty ~seed ());
    ("starve", fun ~seed -> Scheduler.starve ~victims:scanner_pids ~seed ());
    (* suspends a writer for long stretches — against the quorum backend
       this parks it mid-Put-broadcast, the half-replicated-write window
       the weak read mode turns into a new/old inversion (E19) *)
    ( "starve-updaters",
      fun ~seed -> Scheduler.starve ~victims:updater_pids ~seed () );
    ("pct", fun ~seed -> Scheduler.pct ~seed ~expected_steps:2000 ());
    ("round-robin", fun ~seed:_ -> Scheduler.round_robin ());
  ]

let scheds = List.map fst (base_scheds default)

(* A nemesis wraps the base policy with fault injection; every random
   choice derives from [seed], so the whole run replays. *)
let nemesis_table =
  [
    ("none", fun ~seed:_ w -> w);
    ("chaos", fun ~seed w -> Scheduler.chaos ~seed ~inner:w ());
    ("storm", fun ~seed w -> Scheduler.crash_storm ~seed w);
    ( "crash-restart",
      fun ~seed:_ w ->
        Scheduler.with_crash_restart ~pid:0 ~crash_at:40 ~restart_after:30 w
    );
  ]

let nemeses = List.map fst nemesis_table

type 'v outcome = {
  result : Sim.result;
  violations : 'v list;
  samples : Metrics.sample list;
}

let run_once ?(record_trace = false) t ~sched =
  (* Prerun oids restart so they are a pure function of the workload:
     fault schedules target cells by oid. *)
  Sim.reset_prerun_oids ();
  let recorder = Metrics.create () in
  let x = t.build recorder in
  let result = Sim.run ~record_trace ~recover:x.recover ~sched x.procs in
  { result; violations = x.check (); samples = Metrics.samples recorder }

let counter t name = int_of_string (List.assoc name (t.counters ()))

let replay decisions =
  Scheduler.replay_decisions ~lenient:true
    ~fallback:(Scheduler.round_robin ()) decisions

(* The steps table: one row per operation kind. *)
let print_steps title samples =
  let all = List.concat samples in
  let kinds =
    List.sort_uniq String.compare
      (List.map (fun (s : Metrics.sample) -> s.kind) all)
  in
  let row kind =
    let ss = List.filter (fun (s : Metrics.sample) -> s.kind = kind) all in
    [
      kind;
      string_of_int (List.length ss);
      Printf.sprintf "%.1f" (Metrics.mean_steps ss);
      string_of_int (Metrics.max_steps ss);
    ]
  in
  if kinds = [] then print_endline title
  else begin
    Table.print
      (Table.make ~title
         ~header:[ "operation"; "count"; "mean steps"; "worst steps" ]
         (List.map row kinds));
    if List.mem "scan" kinds then
      Printf.printf "max interval contention seen by a scan: %d\n"
        (List.fold_left
           (fun acc per_run ->
             max acc
               (Metrics.max_interval_contention
                  ~over:(fun s -> s.Metrics.kind = "scan")
                  per_run))
           0 samples)
  end

(* ddmin over the recorded schedule; the oracle is "the replay still
   violates (or crashes the harness)". *)
let shrink c t schedule =
  let fails decisions =
    match run_once t ~sched:(replay decisions) with
    | o -> o.violations <> []
    | exception _ -> true
  in
  if not (fails schedule) then begin
    print_endline
      "shrink: recorded schedule does not reproduce deterministically; \
       skipping";
    None
  end
  else begin
    let minimal, calls = Shrink.minimize ~oracle:fails schedule in
    Printf.printf "shrink: %d decisions -> %d minimal (%d oracle runs)\n"
      (List.length schedule) (List.length minimal) calls;
    List.iter (fun d -> print_endline (Scheduler.decision_to_string d)) minimal;
    Option.iter
      (fun path ->
        Shrink.save path minimal;
        Printf.printf "shrink: minimal schedule saved to %s\n" path)
      c.replay_file;
    Some (List.length minimal)
  end

let campaign c t =
  (* values and combinations no scenario accepts, rejected before any run *)
  let base = choose "--sched" (base_scheds c) c.sched in
  let nemesis = choose "--nemesis" nemesis_table c.nemesis in
  let kinds = mem_kinds c in
  if c.r > c.m then usage "r (%d) must be <= m (%d)" c.r c.m;
  if c.expect_violations && not t.checked then
    usage "--expect-violations needs an oracle: add --check";
  Metrics.reset_mem_faults ();
  Metrics.reset_serving ();
  Metrics.reset_durable ();
  Metrics.reset_net ();
  Metrics.reset_reconfig ();
  Metrics.reset_txn ();
  let runs = ref 0 and steps = ref 0 and crashes = ref 0 in
  let restarts = ref 0 and violations = ref 0 in
  let samples = ref [] and failing = ref None in
  let replaying = c.replay_file <> None && not c.shrink in
  let absorb = (not replaying) && (t.absorbs_crashes || kinds <> None) in
  let execute label sched =
    incr runs;
    match run_once ~record_trace:c.shrink t ~sched with
    | o ->
      let res = o.result in
      steps := !steps + res.clock;
      crashes := !crashes + List.length res.crashed;
      restarts :=
        !restarts + Array.fold_left (fun a i -> a + (i - 1)) 0 res.incarnations;
      violations := !violations + List.length o.violations;
      samples := o.samples :: !samples;
      if o.violations <> [] then begin
        Printf.printf "%s: %d violations\n" label (List.length o.violations);
        List.iter (Fmt.pr "  %a@." t.pp_violation) o.violations;
        if c.shrink && !failing = None then
          failing := Some (Trace.schedule res.trace)
      end;
      Some res
    | exception e when absorb ->
      (* A corrupted value can crash the harness outright (out-of-range
         index, never-written payload): a failure of the implementation,
         not of the campaign loop.  The trace died with the run, so only
         exception-free failures feed the shrinker. *)
      incr violations;
      Printf.printf "%s: harness crash: %s\n" label (Printexc.to_string e);
      None
  in
  (match c.replay_file with
  | Some path when replaying ->
    let decisions = Shrink.load path in
    Printf.printf "replaying %d decisions from %s\n" (List.length decisions)
      path;
    ignore (execute "replay" (replay decisions))
  | _ ->
    for s = 0 to c.seeds - 1 do
      let seed = c.seed_base + s in
      let sched () =
        let w = nemesis ~seed (base ~seed) in
        let w =
          match kinds with
          | Some kinds ->
            Scheduler.mem_storm ~seed ~kinds ~rate:c.mem_rate
              ~max_faults:c.mem_max w
          | None -> w
        in
        t.nemesis ~seed w
      in
      let label = Printf.sprintf "seed %d" seed in
      match execute label (sched ()) with
      | Some res ->
        List.iter
          (fun (what, layer) ->
            ignore (execute (label ^ " " ^ what) (layer (sched ()))))
          (t.sweep res)
      | None -> ()
    done);
  (* Campaign counters, taken before the shrinker's runs pile on more. *)
  let counters = t.counters () in
  print_steps
    (Printf.sprintf "%s:%s %d updaters x %d, %d scanners x %d, %s, %d runs%s%s"
       t.name
       (if List.mem "m" t.reads then Printf.sprintf " m=%d r=%d" c.m c.r
        else "")
       c.updaters c.updates c.scanners c.scans c.sched !runs
       (if c.nemesis <> "none" then ", nemesis " ^ c.nemesis else "")
       (if kinds <> None then ", mem-faults " ^ c.mem_faults else ""))
    !samples;
  Printf.printf "faults: %d crashes, %d restarts\n" !crashes !restarts;
  Fmt.pr "@[<hov 2>counters:%a@]@."
    Fmt.(list ~sep:nop (fun ppf (k, v) -> pf ppf "@ %s=%s" k v))
    counters;
  if List.mem "mem-faults" t.reads then begin
    let mf = Metrics.mem_faults () in
    if
      kinds <> None
      || Metrics.total_injected mf > 0
      || Metrics.total_detected mf > 0
      || mf.Metrics.hardened.Mem.Hardened.repairs > 0
    then Fmt.pr "%a@." Metrics.pp_mem_faults mf
  end;
  let shrunk = Option.bind !failing (shrink c t) in
  Option.iter
    (fun path ->
      Json.write path
        ([
           ("impl", Json.str t.name);
           ("sched", Json.str c.sched);
           ("nemesis", Json.str c.nemesis);
           ("seed_base", Json.int c.seed_base);
           ("runs", Json.int !runs);
           ("steps", Json.int !steps);
           ("crashes", Json.int !crashes);
           ("restarts", Json.int !restarts);
           ("violations", Json.int !violations);
           ( "shrunk_schedule_len",
             match shrunk with Some l -> Json.int l | None -> "null" );
         ]
        @ counters);
      Printf.printf "json summary written to %s\n" path)
    c.json;
  let checker_ok =
    if not t.checked then true
    else if c.expect_violations then
      if !violations > 0 then begin
        Printf.printf "checker: %d violations (expected%s)\n" !violations
          (match t.unsound with Some why -> ": " ^ why | None -> "");
        true
      end
      else begin
        print_endline "checker: NO violations, but --expect-violations was given";
        false
      end
    else if !violations = 0 then begin
      Printf.printf "checker: all %d executions %s\n" !runs t.verdict;
      true
    end
    else begin
      Printf.printf "checker: %d VIOLATIONS\n" !violations;
      false
    end
  in
  if t.accept ~replaying && checker_ok then 0 else 1

let run c t =
  (* Cells must be registered as fault targets before a workload is built
     (tracking also keeps the per-cell history Stale_read draws on);
     replayed schedules may carry fault decisions even with --mem-faults
     off.  Tracking is process-global, so it is put back afterwards. *)
  let was = Mem.Sim.fault_tracking () in
  let on = was || List.mem "mem-faults" t.reads in
  if on <> was then Mem.Sim.set_fault_tracking on;
  Fun.protect
    ~finally:(fun () -> if on <> was then Mem.Sim.set_fault_tracking was)
    (fun () -> campaign c t)
