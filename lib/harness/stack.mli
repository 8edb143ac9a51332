(** The stack registry: every serving stack the simulator campaigns and
    the multicore load generator drive, described once as a functor over
    the shared-memory backend.

    A stack is a base algorithm plus optional layers, each wrapping the
    one below: Figure 3, then sharded (shards, placement, validated or
    relaxed scans), resilient (supervision over the shards), durable (a
    write-ahead log on a given storage device) and txn (MVCC
    transactions).  {!Scenarios} instantiates the registry over
    [Mem.Sim] (and over the hardened memories and the ABD quorum memory);
    {!Loadgen_cli} instantiates it over [Mem.Atomic] and the multicore
    ABD memory. *)

open Psnap

type partition = [ `Round_robin | `Range ]

(** The layered stacks, by [--impl] name. *)
val layered : string list

(** [choose bases name] is the base algorithm [name]; raises
    {!Scenario.Usage} listing [bases] and {!layered} when it is absent. *)
val choose :
  (string * (module Snapshot.S)) list -> string -> (module Snapshot.S)

(** Where the resilient layer's shards lie and how many rounds a
    validated scan may spend before it degrades. *)
module type GEOMETRY = sig
  val shards : int

  val partition : partition

  val max_rounds : int
end

(** The resilient layer's configuration: a geometry plus the six
    supervision constants (backoff base and cap, breaker threshold,
    cooldown and probe count, heal quiescence budget), which every stack
    shares. *)
module Supervision (G : GEOMETRY) : Runtime.Resilient.CONFIG

module Make (M : Mem.S) : sig
  (** Figure 3 over Figure 2's active set: the base every layer wraps. *)
  module Fig3 : Snapshot.S

  (** The flat base algorithms by [--impl] name, in comparison order:
      afek, fig1, fig1-adaptive, fig1-small, fig3, fig3-small,
      fig3-bounded-aset, farray, nonblocking. *)
  val bases : (string * (module Snapshot.S)) list

  (** Figure 3 sharded [shards] ways. *)
  val sharded :
    shards:int -> partition:partition -> mode:[ `Validated | `Relaxed ] ->
    (module Snapshot.S)

  (** The supervised sharded front: [Primary] serves each shard, a healed
      shard is rebuilt on [Heal]. *)
  module Resilient (Primary : Snapshot.S) (Heal : Snapshot.S) (G : GEOMETRY) :
    module type of
      Runtime.Resilient.Make (M) (Primary) (Heal) (Supervision (G))

  (** Figure 3 behind a write-ahead log on storage [St]. *)
  module Durable (St : Persist.Storage.S) :
    module type of Persist.Durable.Make (M) (Fig3) (St)

  (** MVCC transactions over Figure 3, with Figure 2's active set as the
      in-flight committer list. *)
  module Txn : Txn.S

  (** {!Txn} behind the snapshot face: an update is a read-modify-write
      transaction retried until it commits, a scan one read-only
      transaction (one partial scan, never validated, never retried). *)
  module Txn_snap : Snapshot.S
end
