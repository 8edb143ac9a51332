(** Standard measured workloads: [updaters] processes storm a snapshot
    object while [scanners] perform partial scans of [r] components under a
    configurable scheduler, with per-operation step counts recorded (sample
    kinds ["update"] and ["scan"]).  Each seed is one complete simulated
    execution; metrics are kept per execution so contention measures stay
    meaningful. *)

open Psnap

type config = {
  impl : (module Snapshot.S);
  m : int;
  updaters : int;
  updates : int;  (** per updater *)
  scanners : int;
  scans : int;  (** per scanner *)
  r : int;  (** components per partial scan *)
  sched : int -> Scheduler.t;  (** seed -> scheduler *)
  seeds : int;
  update_range : int option;
      (** restrict updates to components [0 .. range-1]; default all *)
  scan_idxs : int array option;
      (** force the scanned set; default {!scan_set} *)
}

type run = { samples : Metrics.sample list; worst_collects : int }

type outcome = { runs : run list }

(** Scanner [j]'s default component set: [r] distinct components spread
    across the vector, offset by [j]. *)
val scan_set : m:int -> r:int -> int -> int array

val run_one : config -> int -> run

val run : config -> outcome

(** {2 Aggregation} *)

val kind_samples : outcome -> string -> Metrics.sample list

val worst_steps : outcome -> string -> int

val mean_steps : outcome -> string -> float

val worst_collects : outcome -> int

val max_point_contention : outcome -> string -> int

val max_interval_contention : outcome -> string -> int

(** Maximum, over operations of kind [around], of the number of
    [of_]-operations overlapping it (within one execution) — e.g. the [Cu]
    of a scan. *)
val max_overlap : outcome -> around:string -> of_:string -> int
