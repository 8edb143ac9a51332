(** The command line of [bin/loadgen.exe]: a multicore benchmark of any
    stack in the {!Stack} registry over [Mem.Atomic] ([--mem raw]) or the
    multicore ABD quorum memory ([--mem net]), driven by
    {!Psnap.Runtime.Loadgen}; or, with [--reconfig-under-load], the E21
    wall-clock reconfiguration scenario.  A flag the selected program
    does not read, set away from its default, is a {!Scenario.Usage}
    error, as is any bad value. *)

(** Every option of [bin/loadgen.exe]; build one from a command line
    with [Scenario.parse default flags]. *)
type config

val default : config

(** The registry over real atomics. *)
module Mc_stack : module type of Stack.Make (Psnap.Mem.Atomic)

val flags : config Scenario.flag list

(** The stack [--impl] and [--mem] select, and the flags beyond the
    workload's that it reads.  Raises {!Scenario.Usage} on an unknown or
    unsupported selection. *)
val stack : config -> (module Psnap.Snapshot.S) * string list

(** Runs the configured program; returns its exit code.  Raises
    {!Scenario.Usage} before any domain starts. *)
val run : config -> int
