(** The six campaign scenarios of [bin/simulate.exe], each built from the
    command line's {!Scenario.config}.  All but [reconfig] run the same
    snapshot workload: updater [pid] writes [updates] values, unique
    across pids and incarnations, to components [(k + 7 pid) mod m];
    scanner [pid] scans a fixed window of [r] components [scans] times.
    Committed witness schedules were shrunk against exactly these
    programs, so tests replay them through these constructors. *)

open Psnap

(** One snapshot object on simulated shared memory, including the sharded
    fronts ([sharded], [sharded-relaxed]); the oracle runs with
    [--check]. *)
val flat : Scenario.config -> Snapshot_spec.violation Scenario.t

(** The supervised sharded front: Atomic scans are checked, Degraded ones
    counted; the round budget and (with [--stick-epoch]) a completed
    shard rebuild are campaign requirements. *)
val resilient : Scenario.config -> Snapshot_spec.violation Scenario.t

(** Figure 3 behind a write-ahead log under power losses; [--power-loss
    sweep] runs each seed once more per clock of its first run, with a
    blackout there. *)
val durable : Scenario.config -> Snapshot_spec.violation Scenario.t

(** MVCC transactions under the snapshot-isolation oracle. *)
val txn : Scenario.config -> int Si_check.violation Scenario.t

(** The snapshot workload over ABD quorum registers ([--mem net]). *)
val net : Scenario.config -> Snapshot_spec.violation Scenario.t

(** An int register with blind writes and reads. *)
module Reg_spec : sig
  type state = int
  type op = Rwrite of int | Rread
  type res = Rack | Rval of int

  val apply : state -> op -> state * res
  val equal_res : res -> res -> bool
end

module Reg_lin : module type of Lin_check.Make (Reg_spec)

(** Online reconfiguration: writers each own a register, readers poll
    them; lost-write and monotonicity oracles always, per-register
    linearizability with [--check]. *)
val reconfig : Scenario.config -> string Scenario.t

(** {2 The command line} *)

(** Every option of [bin/simulate.exe]; defaults come from
    {!Scenario.default}. *)
val flags : Scenario.flag list

type any = Any : 'v Scenario.t -> any

(** The scenario [--reconfig], [--mem] and [--impl] select.  Raises
    {!Scenario.Usage} when the configuration sets a flag that scenario
    does not read. *)
val of_config : Scenario.config -> any
