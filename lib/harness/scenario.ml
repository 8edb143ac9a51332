(** What a fault campaign runs: one scenario per layer.

    A scenario is the part of a campaign that differs between layers: how
    to build one execution (processes, recovery bodies, oracle), which
    extra nemesis layers to compose, which counters to report and which
    flags it reads.  {!Campaign} owns everything else.  The six scenarios
    live in {!Scenarios}; [bin/simulate.exe] is a command line over them,
    and the tests replay committed witnesses through the very same
    programs. *)

open Psnap

(** A usage error: an unknown option value, or a flag the selected
    scenario would ignore.  [bin/simulate.exe] exits 2 on it. *)
exception Usage of string

let usage fmt = Printf.ksprintf (fun s -> raise (Usage s)) fmt

(** [choose flag table name] looks [name] up in [table]; raises {!Usage}
    listing the choices when it is absent. *)
let choose flag table name =
  match List.assoc_opt name table with
  | Some v -> v
  | None ->
    usage "unknown %s %S (choose from: %s)" flag name
      (String.concat ", " (List.map fst table))

(** Every option of [bin/simulate.exe], under its flag's name. *)
type config = {
  impl : string;
  shards : int;
  m : int;
  r : int;
  updaters : int;
  updates : int;
  scanners : int;
  scans : int;
  sched : string;
  seed_base : int;
  seeds : int;
  check : bool;
  crash_at : int option;
  nemesis : string;
  mem_faults : string;
  mem_rate : float;
  mem_max : int;
  expect_violations : bool;
  shrink : bool;
  replay_file : string option;
  json : string option;
  stick_epoch : int option;
  stall_shard : int option;
  slow_pid : int option;
  max_rounds : int;
  power_loss : string;
  checkpoint_every : int;
  wal_mode : string;
  mem : string;
  replicas : int;
  net_nemesis : string;
  net_mode : string;
  net_rate : float;
  txn_mode : string;
  reconfig : string;
  spares : int;
  reconfig_nemesis : string;
  replica_death : int;
}

let default =
  {
    impl = "fig3";
    shards = 4;
    m = 64;
    r = 8;
    updaters = 3;
    updates = 30;
    scanners = 2;
    scans = 8;
    sched = "random";
    seed_base = 0;
    seeds = 10;
    check = false;
    crash_at = None;
    nemesis = "none";
    mem_faults = "none";
    mem_rate = 0.02;
    mem_max = 8;
    expect_violations = false;
    shrink = false;
    replay_file = None;
    json = None;
    stick_epoch = None;
    stall_shard = None;
    slow_pid = None;
    max_rounds = 6;
    power_loss = "none";
    checkpoint_every = 0;
    wal_mode = "write-ahead";
    mem = "sim";
    replicas = 3;
    net_nemesis = "none";
    net_mode = "abd";
    net_rate = 0.02;
    txn_mode = "fcw";
    reconfig = "off";
    spares = 2;
    reconfig_nemesis = "none";
    replica_death = 1;
  }

(** The type of an option's value. *)
type _ kind =
  | Int : int kind
  | Float : float kind
  | Text : string kind
  | Switch : bool kind
  | Some_int : int option kind
  | Some_text : string option kind

(** One option of [bin/simulate.exe]: its flag, documentation and field of
    {!config}. *)
type flag =
  | Flag : {
      name : string;
      docv : string;
      doc : string;
      kind : 'a kind;
      get : config -> 'a;
      set : config -> 'a -> config;
    }
      -> flag

(** The fault kinds of [--mem-faults] ("corrupt", "lose,stale", "all"),
    [None] for "none". *)
let mem_kinds c =
  match c.mem_faults with
  | "" | "none" -> None
  | "all" -> Some Event.all_fault_kinds
  | s ->
    Some
      (List.map
         (fun tok ->
           match Event.fault_kind_of_string (String.trim tok) with
           | Some k -> k
           | None ->
             usage
               "unknown fault kind %S (choose from: lose, stale, corrupt, \
                stick, all)"
               tok)
         (String.split_on_char ',' s))

(** One execution of a scenario's program: fresh object, fresh history. *)
type 'v execution = {
  procs : (unit -> unit) array;
  recover : Sim.recover;
  check : unit -> 'v list;
      (** after the run: harvest per-run counters, return violations *)
}

type 'v t = {
  name : string;  (** the implementation, as in the JSON ["impl"] key *)
  reads : string list;
      (** the scenario-specific flags it honours; any other one set away
          from its default is a {!Usage} error *)
  checked : bool;  (** whether [check] runs an oracle *)
  verdict : string;  (** what a clean campaign is, e.g. "linearizable" *)
  unsound : string option;
      (** why the configured mode is expected to fail its oracle *)
  absorbs_crashes : bool;
      (** whether an exception out of a seeded run counts as a violation
          and the campaign goes on; otherwise only under a memory-fault
          storm, and a replay always re-raises *)
  pp_violation : 'v Fmt.t;
  build : Metrics.recorder -> 'v execution;
  nemesis : seed:int -> Scheduler.t -> Scheduler.t;
      (** layers over the base scheduler, nemesis and memory-fault storm *)
  sweep : Sim.result -> (string * (Scheduler.t -> Scheduler.t)) list;
      (** further runs of a seed after its first one, each labelled and
          layered over a fresh copy of the seed's schedule *)
  counters : unit -> (string * string) list;
      (** campaign counters: printed, and the JSON fields after the
          common header *)
  accept : replaying:bool -> bool;
      (** campaign-level requirements beyond the oracle; prints why not *)
}

(** A scenario with no extra layers, no sweep, no counters, an always-on
    oracle, a linearizability verdict and harness crashes that end the
    campaign unless overridden. *)
let make ~name ~reads ?(checked = true)
    ?(verdict = "linearizable (observation check)") ?unsound
    ?(absorbs_crashes = false) ~pp_violation
    ?(nemesis = fun ~seed:_ w -> w) ?(sweep = fun _ -> [])
    ?(counters = fun () -> [])
    ?(accept = fun ~replaying:_ -> true) build =
  {
    name;
    reads;
    checked;
    verdict;
    unsound;
    absorbs_crashes;
    pp_violation;
    build;
    nemesis;
    sweep;
    counters;
    accept;
  }

