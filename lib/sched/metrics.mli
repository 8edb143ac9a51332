(** Per-operation step accounting and the paper's contention measures.

    A {!sample} records, for one high-level operation instance (a scan, an
    update, a join, ...), how many shared-memory steps its process executed
    on its behalf and the stamp interval during which it was active.  From
    the intervals the contention measures of Section 2 are computed:
    interval contention [C] (operations whose active intervals overlap) and
    point contention [Ċ] (maximum simultaneously active). *)

type sample = {
  pid : int;
  kind : string;
  steps : int;  (** own steps of this operation instance *)
  inv : int;  (** stamp at invocation *)
  resp : int;  (** stamp at response *)
}

type recorder

val create : unit -> recorder

(** [measure r ~pid ~kind f] runs [f] as one operation of [pid], recording
    its own-step count and active interval.  Must run inside {!Sim.run}. *)
val measure : recorder -> pid:int -> kind:string -> (unit -> 'a) -> 'a

(** All samples, in recording order. *)
val samples : recorder -> sample list

val by_kind : recorder -> string -> sample list

val total_steps : sample list -> int

val max_steps : sample list -> int

val mean_steps : sample list -> float

(** [overlaps a b] — the active intervals intersect. *)
val overlaps : sample -> sample -> bool

(** Interval contention [C(op)] of [s] among [all] ([s] included, as in the
    paper's definition). *)
val interval_contention : sample list -> sample -> int

(** Point contention [Ċ(op)] of [s]: maximum number of operations of [all]
    simultaneously active at some stamp inside [s]'s interval. *)
val point_contention : sample list -> sample -> int

(** Maxima over all operations satisfying [over] (default: all). *)
val max_interval_contention : ?over:(sample -> bool) -> sample list -> int

val max_point_contention : ?over:(sample -> bool) -> sample list -> int

(** {2 Escape sanitizer}

    The dynamic face of the no-escape discipline (docs/MODEL.md, "Memory
    discipline"): with {!Mem_sim.set_strict}[ true], every simulated access
    is checked to happen at a scheduling point of the current run. *)

type sanitizer = {
  strict : bool;  (** strict mode currently enabled *)
  checked : int;  (** accesses guarded since the last reset *)
  escaped : int;  (** accesses that raised {!Mem_sim.Escape} *)
}

val sanitizer : unit -> sanitizer

val reset_sanitizer : unit -> unit

val pp_sanitizer : Format.formatter -> sanitizer -> unit

(** {2 Serving-layer counters}

    Global counters bumped by the [Psnap_runtime] serving layer: validation
    rounds and retries of sharded scans, degraded-scan and backoff totals,
    circuit-breaker transitions, and shard-heal outcomes of the resilient
    supervision layer (docs/MODEL.md §11).  Plain references, like the
    hardened-register stats: exact under the cooperative simulator,
    approximate (unsynchronized increments) under the multi-domain
    loadgen. *)

type serving = {
  scan_rounds : int;  (** per-shard sub-scan rounds executed by scans *)
  scan_retries : int;  (** rounds beyond the minimal validating pair *)
  degraded_scans : int;  (** scans that returned a [Degraded] result *)
  backoff_steps : int;  (** base-memory reads spent backing off *)
  breaker_opens : int;  (** circuit transitions into [Open] *)
  breaker_half_opens : int;  (** transitions into [Half_open] *)
  breaker_closes : int;  (** transitions back into [Closed] *)
  heals_started : int;  (** shard rebuilds initiated (shard sealed) *)
  heals_completed : int;  (** rebuilds swapped in atomically *)
  heals_aborted : int;  (** rebuilds abandoned (quiescence timeout) *)
  stuck_epochs : int;  (** non-monotone epoch draws detected by updates *)
}

val serving : unit -> serving

val reset_serving : unit -> unit

(** Bump API used by [Psnap_runtime.Sharded] / [Psnap_runtime.Resilient]. *)

val note_scan_rounds : int -> unit

val note_degraded_scan : unit -> unit

val note_backoff : int -> unit

val note_breaker : [ `Open | `Half_open | `Close ] -> unit

val note_heal : [ `Started | `Completed | `Aborted ] -> unit

val note_stuck_epoch : unit -> unit

(** {2 Durability counters}

    Global counters bumped by the [Psnap_persist] layer (docs/MODEL.md
    §13): WAL traffic, commits and checkpoints, recoveries with their
    replay volume, the bytes and records discarded while repairing a log
    tail, and power losses observed by the storage backend.  Same
    discipline as the serving counters: plain references — exact under the
    cooperative simulator, approximate under the multi-domain loadgen. *)

type durable = {
  wal_appends : int;  (** records appended to a WAL *)
  wal_syncs : int;  (** storage [sync] barriers issued *)
  wal_bytes : int;  (** total bytes appended *)
  commits : int;  (** durable updates acknowledged *)
  checkpoints : int;  (** sealed checkpoint triples written *)
  recoveries : int;  (** recovery passes executed *)
  replayed_updates : int;  (** update records re-applied by recoveries *)
  truncated_bytes : int;  (** log-tail bytes discarded by recoveries *)
  torn_records : int;  (** recoveries that discarded a torn tail record *)
  corrupt_records : int;  (** recoveries that hit a checksum mismatch *)
  power_losses : int;  (** power losses observed by storage devices *)
}

val durable : unit -> durable

val reset_durable : unit -> unit

(** Bump API used by [Psnap_persist]. *)

val note_wal_append : int -> unit
(** [note_wal_append bytes] — one record of [bytes] bytes appended. *)

val note_wal_sync : unit -> unit

val note_commit : unit -> unit

val note_checkpoint : unit -> unit

val note_recovery : replayed:int -> unit

val note_truncation : bytes:int -> torn:bool -> corrupt:bool -> unit

val note_power_loss : unit -> unit

(** {2 Network counters}

    Global counters bumped by the [Psnap_net] transport and the ABD quorum
    registers (docs/MODEL.md §14): message traffic, injected network-fault
    effects, quorum protocol rounds and resends, read write-backs (and the
    sound skip when every quorum replier already holds the maximal tag),
    operations that gave up with [Unavailable], and the poll-steps clients
    spent waiting for quorums (the step-denominated quorum latency).  Same
    discipline as the serving counters: plain references — exact under the
    cooperative simulator, approximate under the multi-domain loadgen. *)

type net = {
  sends : int;  (** messages enqueued on a link *)
  delivers : int;  (** messages received by a node *)
  drops : int;  (** injected [Drop_msg] effects *)
  dups : int;  (** injected [Dup_msg] effects *)
  delays : int;  (** injected [Delay_msg] effects *)
  cuts : int;  (** injected [Cut_link] effects *)
  heals : int;  (** injected [Heal_link] effects *)
  rounds : int;  (** completed quorum phases (Get or Put rounds) *)
  resends : int;  (** request rebroadcasts beyond each phase's first *)
  writebacks : int;  (** read-repair write-back rounds executed *)
  writeback_skips : int;
      (** write-backs soundly skipped (every replier already maximal) *)
  unavailable : int;  (** operations that raised [Unavailable] *)
  quorum_ops : int;  (** completed quorum operations *)
  quorum_wait : int;  (** total poll-steps spent awaiting quorums *)
}

val net : unit -> net

val reset_net : unit -> unit

(** Bump API used by [Psnap_net]. *)

val note_send : unit -> unit

val note_deliver : unit -> unit

val note_net_fault : Event.net_fault_kind -> unit
(** One fault effect actually injected (absorbed decisions are not
    counted here; the transport's own counters track absorption). *)

val note_quorum_round : unit -> unit

val note_resend : unit -> unit

val note_writeback : skipped:bool -> unit

val note_unavailable : unit -> unit

val note_quorum_op : wait:int -> unit
(** One quorum operation completed after [wait] poll-steps. *)

(** Mean poll-steps per completed quorum operation. *)
val mean_quorum_wait : net -> float

(** {2 Reconfiguration counters}

    Global counters bumped by the [Psnap_net] membership layer
    (docs/MODEL.md §16): reconfigurations completed end-to-end, the seal /
    state-transfer / activation phases executed, stale requests fenced off
    by epoch tags, clients chasing a newer configuration after a fence
    rejection, health-layer suspicions and the replacement configurations
    they proposed, scheduler-driven churn requests, and the unfenced swaps
    of the deliberately-unsound [naive] mode.  Same discipline as the
    other groups: plain references — exact under the cooperative
    simulator, approximate under the multi-domain loadgen. *)

type reconfig = {
  reconfigs : int;  (** reconfigurations completed end-to-end *)
  seals : int;  (** old configurations sealed (phase 1) *)
  transfers : int;  (** registers state-transferred to a new epoch *)
  activations : int;  (** new configurations activated (phase 2) *)
  stale_rejects : int;  (** requests a replica fenced off by epoch *)
  epoch_chases : int;  (** client retries after adopting a newer config *)
  suspicions : int;  (** replicas suspected by the health layer *)
  replacements : int;  (** replacement configurations auto-proposed *)
  churn_requests : int;  (** {!Scheduler.Reconfig} decisions accepted *)
  naive_swaps : int;  (** unfenced membership swaps ([naive] mode) *)
}

val reconfig : unit -> reconfig

val reset_reconfig : unit -> unit

(** Bump API used by [Psnap_net.Net_reconfig]. *)

val note_reconfig : unit -> unit

val note_seal : unit -> unit

val note_transfer : registers:int -> unit

val note_activation : unit -> unit

val note_stale_reject : unit -> unit

val note_epoch_chase : unit -> unit

val note_suspicion : unit -> unit

val note_replacement : unit -> unit

val note_churn_request : unit -> unit

val note_naive_swap : unit -> unit

(** {2 Transaction counters}

    Global counters bumped by the [Psnap_txn] MVCC layer (docs/MODEL.md
    §15): begins, read-only and read-write commits, the three abort
    classes (first-committer-wins conflicts, bounded commit-descriptor
    acquisition giving up, voluntary aborts), the overwrites the unsound
    last-writer-wins mode performed where validation would have refused,
    crash-restart descriptor resumes, and versions discarded by watermark
    pruning.  Same discipline as the serving counters: plain references —
    exact under the cooperative simulator, approximate under the
    multi-domain loadgen. *)

type txn = {
  begins : int;  (** transactions begun *)
  ro_commits : int;  (** read-only commits (never validated, never abort) *)
  rw_commits : int;  (** read-write commits published *)
  conflicts : int;  (** first-committer-wins validation aborts *)
  busy_aborts : int;  (** commit-descriptor acquisition exhausted *)
  voluntary_aborts : int;  (** explicit [abort] calls *)
  lww_overwrites : int;
      (** unsound-mode commits that overwrote a version invisible to their
          snapshot (each is a lost-update risk) *)
  resumes : int;  (** dead incarnations' descriptors completed/released *)
  pruned_versions : int;  (** versions discarded below the watermark *)
}

val txn : unit -> txn

val reset_txn : unit -> unit

(** Bump API used by [Psnap_txn]. *)

val note_txn_begin : unit -> unit

val note_txn_ro_commit : unit -> unit

val note_txn_rw_commit : unit -> unit

val note_txn_conflict : unit -> unit

val note_txn_busy : unit -> unit

val note_txn_voluntary_abort : unit -> unit

val note_txn_lww_overwrite : unit -> unit

val note_txn_resume : unit -> unit

val note_txn_pruned : int -> unit

(** Total aborts (conflict + busy + voluntary). *)
val txn_aborts : txn -> int

(** Aborted fraction of read-write commit attempts. *)
val txn_abort_rate : txn -> float

val pp_txn : Format.formatter -> txn -> unit

(** {2 Memory faults}

    Per-kind injection counters from the simulated memory
    ({!Mem_sim.fault_counts}) together with the detection/repair counters
    of the hardened registers ([Psnap_mem.Hardened.stats]) — the two sides
    of a chaos campaign: what the nemesis did, and what the hardening
    caught. *)

type fault_line = {
  kind : Event.fault_kind;
  injected : int;  (** decisions that armed or applied a fault *)
  absorbed : int;  (** decisions with no possible effect *)
  fired : int;  (** armed faults consumed by an access *)
}

type mem_faults = {
  per_kind : fault_line list;  (** one line per kind, in
                                   {!Event.all_fault_kinds} order *)
  hardened : Psnap_mem.Hardened.stats;
}

val mem_faults : unit -> mem_faults

val reset_mem_faults : unit -> unit

(** Total fault decisions that took effect (sum of [injected]). *)
val total_injected : mem_faults -> int

(** Total faults the hardened registers detected (corrupt + stale +
    lost). *)
val total_detected : mem_faults -> int

val pp_mem_faults : Format.formatter -> mem_faults -> unit
