(** Multicore load generator for snapshot implementations.

    Drives any {!Psnap_snapshot.Snapshot_intf.S} (over the Atomic
    backend) with one OCaml domain per client, measuring per-operation
    latency into per-domain {!Histogram}s that are merged into a single
    report when the run ends.  Supports:

    - {e closed-loop} arrivals (each domain issues the next operation as
      soon as the previous one returns: measures capacity) and
      {e open-loop} arrivals at a target aggregate rate (operations are
      scheduled on a fixed cadence and latency is measured from the
      {e scheduled} arrival, so queueing delay is charged to the object —
      the coordinated-omission-aware protocol);
    - uniform and zipfian key popularity;
    - a probabilistic update:scan mix or dedicated updater/scanner
      domains;
    - warmup exclusion: operations issued before the warmup deadline are
      executed but not recorded.

    The driver blocks for [warmup_s + duration_s] wall seconds, then
    stops the domains and merges their histograms. *)

(** Exact zipfian sampler over ranks [0..n-1] ([P(i) ∝ (i+1)^-theta]),
    via a precomputed CDF and binary search.  The structure is read-only
    after [create] and safe to share across domains; per-domain
    randomness comes from the caller's [Random.State]. *)
module Zipf : sig
  type t

  val create : theta:float -> n:int -> t

  val sample : t -> Random.State.t -> int
end

type dist = Uniform | Zipfian of float  (** zipf exponent theta *)

type mix =
  | Ratio of float  (** probability that an operation is an update *)
  | Dedicated of { updaters : int; scanners : int }
      (** fixed roles; must sum to [domains] *)

type loop =
  | Closed
  | Open_rate of float  (** target aggregate arrivals per second *)

type scan_pattern =
  | Random_set  (** r independent draws from [dist] *)
  | Window
      (** a contiguous range read: [dist] picks the base index, the scan
          covers the next [r] components (mod [m]) — the access pattern
          range partitioning is designed for *)

type config = {
  m : int;  (** components *)
  r : int;  (** scan width *)
  domains : int;
  dist : dist;
  mix : mix;
  loop : loop;
  scan_pattern : scan_pattern;
  warmup_s : float;
  duration_s : float;
  seed : int;
}

val default : config
(** m=1024, r=8, 2 domains, uniform, 50:50 mix, closed loop, random scan
    sets, 0.2 s warmup, 1 s measured. *)

type report = {
  elapsed_s : float;  (** measured post-warmup wall time *)
  updates : int;  (** recorded (post-warmup) updates *)
  scans : int;
  update_lat : Histogram.t;
  scan_lat : Histogram.t;
}

val validate : config -> unit
(** @raise Invalid_argument on inconsistent configs (r > m, mix outside
    [0,1], dedicated roles not summing to [domains], an open-loop rate
    whose per-domain arrival interval rounds to 0 ns, ...). *)

val run : (module Psnap_snapshot.Snapshot_intf.S) -> config -> report
(** Runs {!validate} first. *)

val throughput : report -> float
(** Recorded operations per measured second. *)

val json_fields : impl:string -> config -> report -> (string * string) list
(** Flat key/value summary (throughput, p50/p90/p99/p99.9 and mean/max
    per operation kind, plus the config) for JSON artifacts; values are
    pre-rendered JSON literals. *)

val dist_to_string : dist -> string

val mix_to_string : mix -> string

val loop_to_string : loop -> string

val scan_pattern_to_string : scan_pattern -> string
