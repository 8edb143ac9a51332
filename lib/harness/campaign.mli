(** The one campaign loop: seeded fault campaigns over a {!Scenario.t}.

    It owns the seed loop, the base scheduler and nemesis composition
    (base → [--nemesis] → [--mem-faults] storm → the scenario's layers),
    replay of a schedule file, ddmin shrinking of the first failing
    schedule, the steps table, the JSON summary and the verdict. *)

open Psnap

(** Names [--sched] and [--nemesis] accept. *)
val scheds : string list

val nemeses : string list

type 'v outcome = {
  result : Sim.result;
  violations : 'v list;
  samples : Metrics.sample list;
}

(** One execution under [sched].  A schedule with memory-fault decisions
    needs [Mem.Sim.set_fault_tracking true] beforehand; {!run} turns it on
    for the campaigns that read [--mem-faults]. *)
val run_once :
  ?record_trace:bool -> 'v Scenario.t -> sched:Scheduler.t -> 'v outcome

(** A saved schedule replayed leniently, completed round-robin: how
    witnesses, shrinking and [--replay-file] drive a scenario. *)
val replay : Scheduler.decision list -> Scheduler.t

(** [counter t name] reads the integer counter [name] of [t.counters]. *)
val counter : 'v Scenario.t -> string -> int

(** [run config t] runs the seeded executions (or the replayed schedule),
    shrinks the first failing one when asked, prints the report, writes
    the JSON summary and returns the exit status.  An exception out of a
    seeded run counts as a violation when [t.absorbs_crashes] or a
    memory-fault storm is on; otherwise, and always on replay, it
    propagates.  Raises
    {!Scenario.Usage} on an unknown scheduler, nemesis or fault kind, on
    [r > m], and on [--expect-violations] without an oracle. *)
val run : Scenario.config -> 'v Scenario.t -> int
