(** Scheduling policies for the simulator.

    The paper's model lets an adversary interleave the atomic steps of the
    processes arbitrarily (Section 2).  A scheduler is asked, at every step,
    which of the runnable processes takes the next shared-memory step; it may
    instead crash a process (crash–restart fault model: the process loses its
    local state but shared memory survives), restart a previously crashed
    process on its recovery function, or stop the run early (used by the
    exhaustive explorer).

    Policies receive a {!view} of the machine: the runnable pids, the crashed
    pids eligible for restart, the clock, and the kind of shared access each
    runnable process is suspended at — enough for targeted fault injection
    ("crash this process while its CAS is pending") without giving the
    adversary anything the model's adversary does not have. *)

type view = {
  runnable : int array;
      (** pids with a pending step; empty only when every live process has
          crashed but some remain restartable *)
  crashed : int array;
      (** crashed pids eligible for {!Restart} — empty unless the run was
          given a recovery function *)
  clock : int;
  op_of : int -> Event.mem_op option;
      (** kind of the shared access a runnable pid is suspended at; [None]
          for pids that are not runnable *)
  oid_of : int -> int option;
      (** the cell a runnable pid is suspended at — what a memory-fault
          nemesis needs to corrupt "the cell this process is about to CAS";
          [None] for pids that are not runnable *)
  name_of : int -> string option;
      (** the {e name} of the cell a runnable pid is suspended at (the
          label passed to [make ~name]) — what a latency or fault nemesis
          needs to target a structure ("stall every access to shard 2")
          without knowing cell oids; [None] for pids that are not
          runnable *)
  steps_of : int -> int;
      (** shared-memory steps executed so far by a pid (across all its
          incarnations) *)
}

type decision =
  | Run of int  (** pid takes its pending step *)
  | Crash of int  (** pid halts losing its local state; its pending step is
                      never executed *)
  | Restart of int  (** a crashed pid respawns on its recovery function *)
  | Mem_fault of { kind : Event.fault_kind; oid : int }
      (** inject a memory fault into cell [oid] (docs/MODEL.md §9); charged
          to the fault budget like {!Crash}/{!Restart} *)
  | Power_loss
      (** whole-machine blackout (docs/MODEL.md §13): every
          durable-storage device drops the writes buffered since its last
          [sync] barrier {e and} every runnable process halts, as one
          decision — so no shrunk schedule can leave a survivor computing
          against pre-loss volatile state.  Reboot is ordinary [Restart]
          decisions; charged to the fault budget like {!Crash} *)
  | Net_fault of { kind : Event.net_fault_kind; src : int; dst : int }
      (** inject a network fault into the directed link [src → dst] of the
          simulated message substrate (docs/MODEL.md §14); charged to the
          fault budget like {!Crash}.  Absorbed (recorded, no effect) when
          the link has no matching in-flight message or link state, so the
          decision is always playable under replay and ddmin *)
  | Reconfig
      (** ask the replicated service's membership manager to propose a
          replacement configuration (docs/MODEL.md §16); charged to the
          fault budget like {!Crash}.  Absorbed (recorded, no effect) when
          no manager is listening or the manager is already mid-handoff,
          so the decision is always playable under replay and ddmin *)
  | Stop  (** abandon the run (explorer ran out of forced choices) *)

type t = { name : string; pick : view -> decision }

module Pid_tbl = Hashtbl.Make (Int)

let name t = t.name

let pick t view = t.pick view

let is_runnable v pid = Array.exists (fun p -> p = pid) v.runnable

let is_restartable v pid = Array.exists (fun p -> p = pid) v.crashed

(* ---- decision serialization (schedule files, shrink reports) ---- *)

let decision_to_string = function
  | Run pid -> Printf.sprintf "run %d" pid
  | Crash pid -> Printf.sprintf "crash %d" pid
  | Restart pid -> Printf.sprintf "restart %d" pid
  | Mem_fault { kind; oid } ->
    Printf.sprintf "%s %d" (Event.fault_kind_to_string kind) oid
  | Power_loss -> "powerloss"
  | Net_fault { kind; src; dst } ->
    Printf.sprintf "%s %d %d" (Event.net_fault_kind_to_string kind) src dst
  | Reconfig -> "reconfig"
  | Stop -> "stop"

let decision_of_string s =
  match String.split_on_char ' ' (String.trim s) with
  | [ "run"; p ] -> Run (int_of_string p)
  | [ "crash"; p ] -> Crash (int_of_string p)
  | [ "restart"; p ] -> Restart (int_of_string p)
  | [ "powerloss" ] -> Power_loss
  | [ "reconfig" ] -> Reconfig
  | [ "stop" ] -> Stop
  | [ verb; oid ] when Event.fault_kind_of_string verb <> None ->
    Mem_fault
      {
        kind = Option.get (Event.fault_kind_of_string verb);
        oid = int_of_string oid;
      }
  | [ verb; src; dst ] when Event.net_fault_kind_of_string verb <> None ->
    Net_fault
      {
        kind = Option.get (Event.net_fault_kind_of_string verb);
        src = int_of_string src;
        dst = int_of_string dst;
      }
  | _ -> invalid_arg (Printf.sprintf "Scheduler.decision_of_string: %S" s)

let pp_decision ppf d = Fmt.string ppf (decision_to_string d)

(* ---- basic policies ---- *)

(* Fault-oblivious policies only ever [Run]; when the view has no runnable
   pid (everything left alive has crashed, restartable), they end the run.
   [Sim.run] reports [Stop] with no runnable pids as [Completed]: the
   crashed processes simply never came back, which the crash–restart model
   allows. *)
let or_stop pick v = if Array.length v.runnable = 0 then Stop else pick v

let round_robin () =
  let last = ref (-1) in
  let pick v =
    let runnable = v.runnable in
    (* smallest runnable pid strictly greater than [!last], cyclically *)
    let n = Array.length runnable in
    let best = ref runnable.(0) in
    let found = ref false in
    for i = 0 to n - 1 do
      let p = runnable.(i) in
      if (not !found) && p > !last then (
        best := p;
        found := true)
    done;
    last := !best;
    Run !best
  in
  { name = "round-robin"; pick = or_stop pick }

let random ~seed () =
  let st = Random.State.make [| seed |] in
  let pick v = Run v.runnable.(Random.State.int st (Array.length v.runnable)) in
  { name = Printf.sprintf "random(%d)" seed; pick = or_stop pick }

(** Mostly runs processes other than [victims]; a victim runs only when it is
    alone or with probability [boost].  Models a slow scanner among fast
    updaters (the starvation scenario motivating the helping mechanism). *)
let starve ~victims ~seed ?(boost = 0.02) () =
  let st = Random.State.make [| seed |] in
  let is_victim p = List.exists (Int.equal p) victims in
  let pick v =
    let runnable = v.runnable in
    let others = Array.to_list runnable |> List.filter (fun p -> not (is_victim p)) in
    match others with
    | [] -> Run runnable.(Random.State.int st (Array.length runnable))
    | _ ->
      if Random.State.float st 1.0 < boost then
        Run runnable.(Random.State.int st (Array.length runnable))
      else Run (List.nth others (Random.State.int st (List.length others)))
  in
  { name = "starve"; pick = or_stop pick }

(** Replays an explicit list of pids; issues [Stop] when the list is
    exhausted and the program has not finished.  Used by {!Explore}. *)
let replay choices =
  let rest = ref choices in
  let pick v =
    match !rest with
    | [] -> Stop
    | c :: tl ->
      rest := tl;
      if is_runnable v c then Run c
      else
        (* A forced choice must be runnable: the explorer only extends
           prefixes with pids it observed runnable. *)
        invalid_arg "Scheduler.replay: choice not runnable"
  in
  { name = "replay"; pick }

(** [replay_then choices fallback] replays a prefix then delegates. *)
let replay_then choices fallback =
  let rest = ref choices in
  let pick v =
    match !rest with
    | c :: tl when is_runnable v c ->
      rest := tl;
      Run c
    | c :: _ ->
      invalid_arg
        (Printf.sprintf "Scheduler.replay_then: choice p%d not runnable" c)
    | [] -> fallback.pick v
  in
  { name = "replay+" ^ fallback.name; pick }

(** Replays an explicit decision list (the shape recorded by
    [Trace.schedule]); issues [Stop] — or delegates to [fallback] — once
    exhausted.  In [lenient] mode a decision that is not currently applicable
    (pid not runnable for [Run]/[Crash], not crashed for [Restart]) is
    silently skipped instead of raising; the delta-debugging shrinker relies
    on this to evaluate subsequences of a recorded schedule. *)
let replay_decisions ?(lenient = false) ?fallback decisions =
  let rest = ref decisions in
  let rec pick v =
    match !rest with
    | [] -> (match fallback with Some f -> f.pick v | None -> Stop)
    | d :: tl ->
      let applicable =
        match d with
        | Run p | Crash p -> is_runnable v p
        | Restart p -> is_restartable v p
        (* A fault targeting a cell the current execution never allocates is
           absorbed by the simulator, so the decision is always playable. *)
        | Mem_fault _ -> true
        (* Power loss hits whatever storage devices exist; always playable. *)
        | Power_loss -> true
        (* A net fault against a link with no matching in-flight message is
           absorbed by the transport, so the decision is always playable. *)
        | Net_fault _ -> true
        (* A reconfiguration request with no manager listening (or one
           already mid-handoff) is absorbed; always playable. *)
        | Reconfig -> true
        | Stop -> true
      in
      if applicable then (
        rest := tl;
        d)
      else if lenient then (
        rest := tl;
        pick v)
      else
        invalid_arg
          (Printf.sprintf "Scheduler.replay_decisions: %s not applicable"
             (decision_to_string d))
  in
  { name = "replay-decisions"; pick }

(** Probabilistic concurrency testing (Burckhardt et al., ASPLOS 2010):
    assign each process a random priority, always run the highest-priority
    runnable process, and demote the running process to a fresh lowest
    priority at [depth - 1] random change points.  For a program with [n]
    processes and [k] steps, each run detects any bug of depth [d] with
    probability at least [1/(n·k^(d-1))] — far better at surfacing rare
    orderings than uniform random walks, while staying reproducible via the
    seed. *)
let pct ~seed ?(depth = 3) ?(expected_steps = 2000) () =
  let st = Random.State.make [| seed |] in
  let priorities = Pid_tbl.create 8 in
  let next_low = ref 0 in
  let change_points =
    List.init (max 0 (depth - 1)) (fun _ ->
        1 + Random.State.int st (max 1 expected_steps))
    |> List.sort compare
  in
  let remaining = ref change_points in
  let priority p =
    match Pid_tbl.find_opt priorities p with
    | Some x -> x
    | None ->
      (* initial priorities: random distinct positives *)
      let x = 1000 + Random.State.int st 1_000_000 in
      Pid_tbl.replace priorities p x;
      x
  in
  let pick v =
    let runnable = v.runnable in
    (match !remaining with
    | cp :: rest when v.clock >= cp ->
      remaining := rest;
      (* demote the currently highest-priority runnable process *)
      let top =
        Array.fold_left
          (fun best p ->
            match best with
            | None -> Some p
            | Some b -> if priority p > priority b then Some p else best)
          None runnable
      in
      Option.iter
        (fun p ->
          decr next_low;
          Pid_tbl.replace priorities p !next_low)
        top
    | _ -> ());
    let best = ref runnable.(0) in
    Array.iter (fun p -> if priority p > priority !best then best := p) runnable;
    Run !best
  in
  { name = Printf.sprintf "pct(d=%d)" depth; pick = or_stop pick }

(** Deterministic burst-rotation adversary: repeatedly gives the next
    non-victim process [burst] consecutive steps (enough to complete a whole
    operation), then each victim [victim_steps] steps (about one collect).
    Rotating the bursts over {e different} processes is the schedule that
    maximizes the number of collects under Figure 1's per-process helping
    rule: each of the victim's collects observes a change by a fresh
    process, postponing the "two observed changes by the same process"
    borrow for as long as possible. *)
let rotation ~victims ~burst ~victim_steps () =
  let phases = ref [] in
  let next = ref 0 in
  let pick v =
    let runnable = v.runnable in
    let mem p = Array.exists (fun q -> q = p) runnable in
    let rec take () =
      match !phases with
      | (p, k) :: rest when k > 0 && mem p ->
        phases := (p, k - 1) :: rest;
        Run p
      | _ :: rest ->
        phases := rest;
        take ()
      | [] -> (
        let non_victims =
          Array.to_list runnable
          |> List.filter (fun p -> not (List.exists (Int.equal p) victims))
        in
        match non_victims with
        | [] -> Run runnable.(0)
        | _ ->
          let u = List.nth non_victims (!next mod List.length non_victims) in
          incr next;
          phases :=
            (u, burst) :: List.map (fun v -> (v, victim_steps)) victims;
          take ())
    in
    take ()
  in
  { name = "rotation"; pick = or_stop pick }

(** Runs each process a random burst of consecutive steps (geometric with
    mean [mean_burst]).  Bursty schedules are what trigger the
    "three values from the same process" helping path. *)
let bursty ~seed ?(mean_burst = 8) () =
  let st = Random.State.make [| seed |] in
  let cur = ref (-1) in
  let left = ref 0 in
  let pick v =
    let runnable = v.runnable in
    let cur_runnable = Array.exists (fun p -> p = !cur) runnable in
    if !left <= 0 || not cur_runnable then (
      cur := runnable.(Random.State.int st (Array.length runnable));
      left := 1 + Random.State.int st (2 * mean_burst));
    decr left;
    Run !cur
  in
  { name = "bursty"; pick = or_stop pick }

(* ---- the nemesis algebra: trigger × target × follow-up ---- *)

(* Every nemesis is a spec over one driver, [nemesis]: at each decision
   point it issues the next follow-up it owes, else asks its trigger for a
   batch of follow-ups (the fault now, its consequences later), else lets
   the inner policy schedule.  Follow-ups go out one per consultation, so
   each fault is one decision that replays and shrinks on its own. *)

type follow_up = After of int * decision | Reboot

type trigger = view -> follow_up list

let later ticks = function
  | [] -> []
  | d :: ds -> After (ticks, d) :: List.map (fun d -> After (0, d)) ds

let now ds = later 0 ds

(* A crash also waits for its victim to be runnable and a restart for its
   pid to be restartable; a restart is due at once when nothing is
   runnable, since the clock is then frozen and waiting would livelock. *)
let ready v ~at = function
  | Crash p -> v.clock >= at && is_runnable v p
  | Restart p ->
    is_restartable v p && (v.clock >= at || Array.length v.runnable = 0)
  | _ -> v.clock >= at

let nemesis name trigger inner =
  let queue = ref [] and last = ref 0 in
  let pick v =
    (match !queue with [] -> queue := trigger v | _ :: _ -> ());
    match !queue with
    | Reboot :: rest when Array.length v.crashed = 0 ->
      queue := rest;
      inner.pick v
    | Reboot :: _ -> Restart v.crashed.(0)
    | After (ticks, d) :: rest when ready v ~at:(!last + ticks) d ->
      queue := rest;
      last := v.clock;
      d
    | _ -> inner.pick v
  in
  { name; pick }

let once trigger =
  let fired = ref false in
  fun v ->
    if !fired then []
    else
      match trigger v with
      | [] -> []
      | batch ->
        fired := true;
        batch

let once_at clock trigger =
  once (fun v -> if v.clock < clock then [] else trigger v)

(* Seeded rate under a max-count: while fewer than [max] batches have
   fired and [guard v] holds, draw from [st]; with probability [p] ask
   [batch], which draws its targets from [st] after the rate draw.  [None]
   (nothing to wound) does not count. *)
let seeded st ~p ~max guard batch =
  let fired = ref 0 in
  fun v ->
    if !fired < max && guard v && Random.State.float st 1.0 < p then (
      match batch v with
      | None -> []
      | Some b ->
        incr fired;
        b)
    else []

let salted seed salt = Random.State.make [| seed; salt |]

let any st a = a.(Random.State.int st (Array.length a))

let any_of st l = List.nth l (Random.State.int st (List.length l))

let runnable_gt k v = Array.length v.runnable > k

let suspended_at v p op =
  match v.op_of p with Some o -> o = op | None -> false

(* ---- crash nemeses (docs/MODEL.md §8) ---- *)

let with_crash ~pid ~at_clock inner =
  nemesis (inner.name ^ "+crash")
    (once_at at_clock (fun v ->
         if is_runnable v pid then now [ Crash pid ] else []))
    inner

let with_crash_restart ~pid ~crash_at ~restart_after inner =
  nemesis (inner.name ^ "+crash-restart")
    (once_at crash_at (fun v ->
         if is_runnable v pid then
           now [ Crash pid ] @ later restart_after [ Restart pid ]
         else []))
    inner

(* The storms' restart table (pid -> clock its restart falls due) answers
   before their trigger: it restarts the first crashed pid, in view order,
   that is due.  Every pid is due once nothing is runnable, and a pid the
   table never scheduled (crashed by another nemesis) is adopted: due at
   once. *)
let storm name st ~rate ~max ~victim ~due inner =
  let table = Pid_tbl.create 4 in
  let restart_due v p =
    Array.length v.runnable = 0
    || match Pid_tbl.find_opt table p with Some c -> v.clock >= c | None -> true
  in
  let kill =
    seeded st ~p:rate ~max (runnable_gt 1) (fun v ->
        let p = victim v in
        Pid_tbl.replace table p (due v);
        Some (now [ Crash p ]))
  in
  nemesis name
    (fun v ->
      match Array.find_opt (restart_due v) v.crashed with
      | Some p ->
        Pid_tbl.remove table p;
        now [ Restart p ]
      | None -> kill v)
    inner

let crash_storm ~seed ?(rate = 0.02) ?(max_crashes = 4) ?(restart_after = 25)
    inner =
  let st = salted seed 0x5702 in
  storm
    (Printf.sprintf "storm(%d)+%s" seed inner.name)
    st ~rate ~max:max_crashes
    ~victim:(fun v -> any st v.runnable)
    ~due:(fun v -> v.clock + restart_after)
    inner

let chaos ~seed ?(rate = 0.04) ?(max_crashes = 6) ?(max_restart_delay = 30)
    ?inner () =
  let inner =
    match inner with Some s -> s | None -> random ~seed:(seed lxor 0x9e3779) ()
  in
  let st = salted seed 0xC4A05 in
  storm
    (Printf.sprintf "chaos(%d)" seed)
    st ~rate ~max:max_crashes
    ~victim:(fun v ->
      match Array.find_opt (fun p -> suspended_at v p Event.Cas) v.runnable with
      | Some p when Random.State.bool st -> p
      | _ -> any st v.runnable)
    ~due:(fun v ->
      v.clock + 1 + Random.State.int st (max 1 max_restart_delay))
    inner

(* ---- memory-fault nemeses (docs/MODEL.md §9) ---- *)

let mem_storm ~seed ?(kinds = Event.all_fault_kinds) ?(rate = 0.02)
    ?(max_faults = 8) inner =
  if kinds = [] then invalid_arg "Scheduler.mem_storm: empty kind list";
  let st = salted seed 0xFA17 in
  nemesis
    (Printf.sprintf "mem-storm(%d)+%s" seed inner.name)
    (seeded st ~p:rate ~max:max_faults (runnable_gt 0) (fun v ->
         match v.oid_of (any st v.runnable) with
         | Some oid -> Some (now [ Mem_fault { kind = any_of st kinds; oid } ])
         | None -> None))
    inner

let mem_fault_on_cell ~kind ~name_prefix ?(at_clock = 0) inner =
  let target v p =
    match (v.name_of p, v.oid_of p) with
    | Some n, Some oid when String.starts_with ~prefix:name_prefix n ->
      Some (Mem_fault { kind; oid })
    | _ -> None
  in
  nemesis (inner.name ^ "+fault-on-cell")
    (once_at at_clock (fun v ->
         now (Option.to_list (Array.find_map (target v) v.runnable))))
    inner

(* The nth-suspension trigger counts each distinct suspension of [pid] at
   [op] once, not each consultation: the pid's step count moves exactly
   when it reaches a new pending access. *)
let corrupt_on_op ~pid ~op ?(nth = 1) inner =
  let seen = ref 0 and counted = ref (-1) in
  nemesis (inner.name ^ "+corrupt-on-op")
    (once (fun v ->
         if not (is_runnable v pid && suspended_at v pid op) then []
         else (
           if v.steps_of pid <> !counted then (
             counted := v.steps_of pid;
             incr seen);
           match v.oid_of pid with
           | Some oid when !seen >= nth ->
             now [ Mem_fault { kind = Event.Corrupt; oid } ]
           | _ -> [])))
    inner

(* ---- latency-fault nemeses (docs/MODEL.md §11) ---- *)

(* A detour replaces an elected pid the nemesis holds back with the
   [k]-th (cyclically) of [others], or keeps it when there is none. *)
let detour p k others =
  match others with [] -> p | _ -> List.nth others (k mod List.length others)

let stall_cells ~matches ~from_clock ~until_clock inner =
  let stalled v p =
    match v.name_of p with Some n -> matches n | None -> false
  in
  let pick v =
    match inner.pick v with
    | Run p when v.clock >= from_clock && v.clock < until_clock && stalled v p
      ->
      let free =
        Array.to_list v.runnable |> List.filter (fun q -> not (stalled v q))
      in
      Run (detour p v.clock free)
    | d -> d
  in
  { name = inner.name ^ "+stall-cells"; pick }

let stall_shard ~shard ~from_clock ~until_clock inner =
  let p1 = Printf.sprintf "shard%d." shard in
  let p2 = Printf.sprintf "rshard%d." shard in
  stall_cells
    ~matches:(fun n ->
      String.starts_with ~prefix:p1 n || String.starts_with ~prefix:p2 n)
    ~from_clock ~until_clock inner

let slow_domain ~pid ?(period = 8) inner =
  if period < 1 then invalid_arg "Scheduler.slow_domain: period < 1";
  let tick = ref 0 in
  let pick v =
    incr tick;
    match inner.pick v with
    | Run p when p = pid && !tick mod period <> 0 ->
      let others = Array.to_list v.runnable |> List.filter (fun q -> q <> pid) in
      Run (detour p !tick others)
    | d -> d
  in
  { name = inner.name ^ "+slow-domain"; pick }

(* ---- power-loss nemeses (docs/MODEL.md §13) ---- *)

(* A power cycle: the blackout, then a restart of every crashed pid.  The
   consultation that finds none left goes to the inner policy. *)
let blackout = now [ Power_loss ] @ [ Reboot ]

let power_loss_at ~at_clock inner =
  nemesis
    (Printf.sprintf "%s+power-loss@%d" inner.name at_clock)
    (once_at at_clock (fun _ -> blackout))
    inner

let power_storm ~seed ?(rate = 0.005) ?(max_losses = 2) inner =
  nemesis
    (Printf.sprintf "power-storm(%d)+%s" seed inner.name)
    (seeded (salted seed 0x90EB) ~p:rate ~max:max_losses (runnable_gt 0)
       (fun _ -> Some blackout))
    inner

(* ---- network-fault nemeses (docs/MODEL.md §14) ---- *)

(* Cut both directions of every link between [victim] and the other nodes
   of [peers] now, and heal them [heal_after] ticks later. *)
let partition victim peers ~heal_after =
  let links kind =
    List.concat_map
      (fun peer ->
        if peer = victim then []
        else
          [
            Net_fault { kind; src = victim; dst = peer };
            Net_fault { kind; src = peer; dst = victim };
          ])
      peers
  in
  now (links Event.Cut_link) @ later heal_after (links Event.Heal_link)

let partition_storm ~seed ~nodes ?victims ?(rate = 0.01) ?(heal_after = 80)
    ?(max_partitions = 3) inner =
  if nodes = [] then invalid_arg "Scheduler.partition_storm: no nodes";
  let victims = Option.value victims ~default:nodes in
  if victims = [] then invalid_arg "Scheduler.partition_storm: no victims";
  let st = salted seed 0x9A27 and healed = ref 0 in
  (* One partition open at a time: the next may start once this one's heal
     time has come, even if it had no link to cut. *)
  nemesis
    (Printf.sprintf "partition-storm(%d)+%s" seed inner.name)
    (seeded st ~p:rate ~max:max_partitions
       (fun v -> v.clock >= !healed)
       (fun v ->
         healed := v.clock + heal_after;
         Some (partition (any_of st victims) nodes ~heal_after)))
    inner

let heal_after ~victim ~peers ~at_clock ~after inner =
  nemesis
    (Printf.sprintf "%s+heal-after@%d" inner.name at_clock)
    (once_at at_clock (fun _ -> partition victim peers ~heal_after:after))
    inner

(* [burst] faults of [kind] against a uniformly chosen loaded link; [None]
   when no link carries a message. *)
let loaded_link st inflight kind burst =
  match inflight () with
  | [||] -> None
  | links ->
    let src, dst = any st links in
    Some (now (List.init burst (fun _ -> Net_fault { kind; src; dst })))

let dup_flood ~seed ~inflight ?(rate = 0.05) ?(max_dups = 16) inner =
  let st = salted seed 0xD0B1 in
  nemesis
    (Printf.sprintf "dup-flood(%d)+%s" seed inner.name)
    (seeded st ~p:rate ~max:max_dups (Fun.const true) (fun _ ->
         loaded_link st inflight Event.Dup_msg 1))
    inner

let lag_spike ~seed ~inflight ?(rate = 0.02) ?(burst = 4) ?(max_spikes = 6)
    inner =
  let st = salted seed 0x1A95 in
  nemesis
    (Printf.sprintf "lag-spike(%d)+%s" seed inner.name)
    (seeded st ~p:rate ~max:max_spikes (Fun.const true) (fun _ ->
         loaded_link st inflight Event.Delay_msg burst))
    inner

(* ---- permanent-failure nemeses (docs/MODEL.md §16) ---- *)

let replica_death ~seed ~victims ?(rate = 0.01) ?(max_deaths = 1) inner =
  if victims = [] then invalid_arg "Scheduler.replica_death: no victims";
  let st = salted seed 0xDEAD in
  nemesis
    (Printf.sprintf "replica-death(%d)+%s" seed inner.name)
    (seeded st ~p:rate ~max:max_deaths (runnable_gt 1) (fun v ->
         match List.filter (is_runnable v) victims with
         | [] -> None
         | alive -> Some (now [ Crash (any_of st alive) ])))
    inner

(* The whole roll is one batch: each crash falls due [gap] ticks after the
   previous victim came back ([start_at] for the first), each restart
   [down_for] ticks after its crash. *)
let rolling_restart ~victims ?(start_at = 40) ?(gap = 40) ?(down_for = 40)
    inner =
  let roll i p =
    later (if i = 0 then start_at else gap) [ Crash p ]
    @ later down_for [ Restart p ]
  in
  nemesis (inner.name ^ "+rolling-restart")
    (once (fun _ -> List.concat (List.mapi roll victims)))
    inner

let config_churn ~seed ?(rate = 0.004) ?(max_reconfigs = 3) inner =
  nemesis
    (Printf.sprintf "config-churn(%d)+%s" seed inner.name)
    (seeded (salted seed 0xC0F6) ~p:rate ~max:max_reconfigs (runnable_gt 0)
       (fun _ -> Some (now [ Reconfig ])))
    inner
