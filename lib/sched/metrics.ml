(** Per-operation step accounting and contention measures.

    A {!sample} records, for one high-level operation instance (a [scan], an
    [update], a [join], ...), how many shared-memory steps its process
    executed on its behalf and the stamp interval during which it was
    active.  From the intervals we compute the paper's contention measures
    (Section 2): interval contention [C] (number of operations whose active
    intervals overlap) and point contention [Ċ] (maximum number
    simultaneously active). *)

type sample = {
  pid : int;
  kind : string;
  steps : int;
  inv : int;  (** stamp at invocation *)
  resp : int;  (** stamp at response *)
}

type recorder = { mutable samples : sample list; mutable count : int }

let create () = { samples = []; count = 0 }

let samples r = List.rev r.samples

(** [measure r ~pid ~kind f] runs [f] as one operation of [pid], recording
    its own-step count and active interval.  Must run inside [Sim.run]. *)
let measure r ~pid ~kind f =
  let s0 = Sim.steps_of pid in
  let inv = Sim.mark () in
  let y = f () in
  let resp = Sim.mark () in
  let s1 = Sim.steps_of pid in
  r.samples <- { pid; kind; steps = s1 - s0; inv; resp } :: r.samples;
  r.count <- r.count + 1;
  y

let by_kind r kind = List.filter (fun s -> s.kind = kind) (samples r)

let total_steps ss = List.fold_left (fun a s -> a + s.steps) 0 ss

let max_steps ss = List.fold_left (fun a s -> max a s.steps) 0 ss

let mean_steps ss =
  match ss with
  | [] -> 0.
  | _ -> float_of_int (total_steps ss) /. float_of_int (List.length ss)

let overlaps a b = a.inv < b.resp && b.inv < a.resp

(** Interval contention of operation [s] among [all] (including [s]
    itself, as in the paper's definition of [C(op)]). *)
let interval_contention all s =
  List.length (List.filter (fun o -> overlaps s o) all)

(** Maximum interval contention over a set of operations. *)
let max_interval_contention ?(over = fun (_ : sample) -> true) all =
  List.fold_left
    (fun acc s -> if over s then max acc (interval_contention all s) else acc)
    0 all

(** Point contention of [s]: the maximum number of operations of [all]
    simultaneously active at some stamp within [s]'s interval.  Computed by
    sweeping invocation/response endpoints. *)
let point_contention all s =
  let events =
    List.concat_map
      (fun o -> if overlaps s o then [ (o.inv, 1); (o.resp, -1) ] else [])
      all
    |> List.sort (fun (t1, d1) (t2, d2) ->
           match Int.compare t1 t2 with 0 -> Int.compare d1 d2 | c -> c)
  in
  let cur = ref 0 and best = ref 0 in
  List.iter
    (fun (t, d) ->
      cur := !cur + d;
      if t >= s.inv && t <= s.resp then best := max !best !cur)
    events;
  !best

let max_point_contention ?(over = fun (_ : sample) -> true) all =
  List.fold_left
    (fun acc s -> if over s then max acc (point_contention all s) else acc)
    0 all

(** {2 Escape sanitizer} *)

type sanitizer = {
  strict : bool;  (** strict mode currently enabled *)
  checked : int;  (** accesses guarded since the last reset *)
  escaped : int;  (** accesses that raised {!Mem_sim.Escape} *)
}

let sanitizer () =
  let checked, escaped = Mem_sim.sanitizer_counts () in
  { strict = Mem_sim.strict_mode (); checked; escaped }

let reset_sanitizer = Mem_sim.reset_sanitizer

let pp_sanitizer ppf s =
  Format.fprintf ppf "sanitizer: strict=%b checked=%d escaped=%d" s.strict
    s.checked s.escaped

(** {2 Serving-layer counters} *)

(* Global counters bumped by the Psnap_runtime serving layer (Sharded scan
   validation, the Resilient supervision layer).  Plain references, like
   [Hardened]'s stats: exact under the cooperative simulator, approximate
   (unsynchronized increments) under the multi-domain loadgen — they are
   observability signals, not linearizable state. *)

let s_scan_rounds = ref 0

let s_scan_retries = ref 0

let s_degraded_scans = ref 0

let s_backoff_steps = ref 0

let s_breaker_opens = ref 0

let s_breaker_half_opens = ref 0

let s_breaker_closes = ref 0

let s_heals_started = ref 0

let s_heals_completed = ref 0

let s_heals_aborted = ref 0

let s_stuck_epochs = ref 0

type serving = {
  scan_rounds : int;
  scan_retries : int;
  degraded_scans : int;
  backoff_steps : int;
  breaker_opens : int;
  breaker_half_opens : int;
  breaker_closes : int;
  heals_started : int;
  heals_completed : int;
  heals_aborted : int;
  stuck_epochs : int;
}

let serving () =
  {
    scan_rounds = !s_scan_rounds;
    scan_retries = !s_scan_retries;
    degraded_scans = !s_degraded_scans;
    backoff_steps = !s_backoff_steps;
    breaker_opens = !s_breaker_opens;
    breaker_half_opens = !s_breaker_half_opens;
    breaker_closes = !s_breaker_closes;
    heals_started = !s_heals_started;
    heals_completed = !s_heals_completed;
    heals_aborted = !s_heals_aborted;
    stuck_epochs = !s_stuck_epochs;
  }

let reset_serving () =
  s_scan_rounds := 0;
  s_scan_retries := 0;
  s_degraded_scans := 0;
  s_backoff_steps := 0;
  s_breaker_opens := 0;
  s_breaker_half_opens := 0;
  s_breaker_closes := 0;
  s_heals_started := 0;
  s_heals_completed := 0;
  s_heals_aborted := 0;
  s_stuck_epochs := 0

let note_scan_rounds rounds =
  s_scan_rounds := !s_scan_rounds + rounds;
  if rounds > 2 then s_scan_retries := !s_scan_retries + (rounds - 2)

let note_degraded_scan () = incr s_degraded_scans

let note_backoff steps = s_backoff_steps := !s_backoff_steps + steps

let note_breaker = function
  | `Open -> incr s_breaker_opens
  | `Half_open -> incr s_breaker_half_opens
  | `Close -> incr s_breaker_closes

let note_heal = function
  | `Started -> incr s_heals_started
  | `Completed -> incr s_heals_completed
  | `Aborted -> incr s_heals_aborted

let note_stuck_epoch () = incr s_stuck_epochs

(** {2 Durability counters} *)

(* Global counters bumped by the Psnap_persist layer (WAL appends,
   checkpoints, recoveries).  Same discipline as the serving counters:
   plain references — exact under the cooperative simulator, approximate
   under the multi-domain loadgen, observability only. *)

let d_wal_appends = ref 0

let d_wal_syncs = ref 0

let d_wal_bytes = ref 0

let d_commits = ref 0

let d_checkpoints = ref 0

let d_recoveries = ref 0

let d_replayed_updates = ref 0

let d_truncated_bytes = ref 0

let d_torn_records = ref 0

let d_corrupt_records = ref 0

let d_power_losses = ref 0

type durable = {
  wal_appends : int;
  wal_syncs : int;
  wal_bytes : int;
  commits : int;
  checkpoints : int;
  recoveries : int;
  replayed_updates : int;
  truncated_bytes : int;
  torn_records : int;
  corrupt_records : int;
  power_losses : int;
}

let durable () =
  {
    wal_appends = !d_wal_appends;
    wal_syncs = !d_wal_syncs;
    wal_bytes = !d_wal_bytes;
    commits = !d_commits;
    checkpoints = !d_checkpoints;
    recoveries = !d_recoveries;
    replayed_updates = !d_replayed_updates;
    truncated_bytes = !d_truncated_bytes;
    torn_records = !d_torn_records;
    corrupt_records = !d_corrupt_records;
    power_losses = !d_power_losses;
  }

let reset_durable () =
  d_wal_appends := 0;
  d_wal_syncs := 0;
  d_wal_bytes := 0;
  d_commits := 0;
  d_checkpoints := 0;
  d_recoveries := 0;
  d_replayed_updates := 0;
  d_truncated_bytes := 0;
  d_torn_records := 0;
  d_corrupt_records := 0;
  d_power_losses := 0

let note_wal_append bytes =
  incr d_wal_appends;
  d_wal_bytes := !d_wal_bytes + bytes

let note_wal_sync () = incr d_wal_syncs

let note_commit () = incr d_commits

let note_checkpoint () = incr d_checkpoints

let note_recovery ~replayed =
  incr d_recoveries;
  d_replayed_updates := !d_replayed_updates + replayed

let note_truncation ~bytes ~torn ~corrupt =
  d_truncated_bytes := !d_truncated_bytes + bytes;
  if torn then incr d_torn_records;
  if corrupt then incr d_corrupt_records

let note_power_loss () = incr d_power_losses

(** {2 Network counters} *)

(* Global counters bumped by the Psnap_net transport and the ABD quorum
   registers (docs/MODEL.md §14).  Same discipline as the serving and
   durable counters: plain references — exact under the cooperative
   simulator, approximate (unsynchronized increments) under the
   multi-domain loadgen, observability only. *)

let n_sends = ref 0

let n_delivers = ref 0

let n_drops = ref 0

let n_dups = ref 0

let n_delays = ref 0

let n_cuts = ref 0

let n_heals = ref 0

let n_rounds = ref 0

let n_resends = ref 0

let n_writebacks = ref 0

let n_writeback_skips = ref 0

let n_unavailable = ref 0

let n_quorum_ops = ref 0

let n_quorum_wait = ref 0

type net = {
  sends : int;
  delivers : int;
  drops : int;
  dups : int;
  delays : int;
  cuts : int;
  heals : int;
  rounds : int;
  resends : int;
  writebacks : int;
  writeback_skips : int;
  unavailable : int;
  quorum_ops : int;
  quorum_wait : int;
}

let net () =
  {
    sends = !n_sends;
    delivers = !n_delivers;
    drops = !n_drops;
    dups = !n_dups;
    delays = !n_delays;
    cuts = !n_cuts;
    heals = !n_heals;
    rounds = !n_rounds;
    resends = !n_resends;
    writebacks = !n_writebacks;
    writeback_skips = !n_writeback_skips;
    unavailable = !n_unavailable;
    quorum_ops = !n_quorum_ops;
    quorum_wait = !n_quorum_wait;
  }

let reset_net () =
  n_sends := 0;
  n_delivers := 0;
  n_drops := 0;
  n_dups := 0;
  n_delays := 0;
  n_cuts := 0;
  n_heals := 0;
  n_rounds := 0;
  n_resends := 0;
  n_writebacks := 0;
  n_writeback_skips := 0;
  n_unavailable := 0;
  n_quorum_ops := 0;
  n_quorum_wait := 0

let note_send () = incr n_sends

let note_deliver () = incr n_delivers

let note_net_fault (kind : Event.net_fault_kind) =
  match kind with
  | Event.Drop_msg -> incr n_drops
  | Event.Dup_msg -> incr n_dups
  | Event.Delay_msg -> incr n_delays
  | Event.Cut_link -> incr n_cuts
  | Event.Heal_link -> incr n_heals

let note_quorum_round () = incr n_rounds

let note_resend () = incr n_resends

let note_writeback ~skipped =
  if skipped then incr n_writeback_skips else incr n_writebacks

let note_unavailable () = incr n_unavailable

let note_quorum_op ~wait =
  incr n_quorum_ops;
  n_quorum_wait := !n_quorum_wait + wait

let mean_quorum_wait n =
  if n.quorum_ops = 0 then 0.0
  else float_of_int n.quorum_wait /. float_of_int n.quorum_ops

(** {2 Reconfiguration counters} *)

(* Global counters bumped by the Psnap_net membership layer
   (docs/MODEL.md §16).  Same discipline as the other counter groups:
   plain references — exact under the cooperative simulator, approximate
   (unsynchronized increments) under the multi-domain loadgen,
   observability only. *)

let r_reconfigs = ref 0

let r_seals = ref 0

let r_transfers = ref 0

let r_activations = ref 0

let r_stale_rejects = ref 0

let r_epoch_chases = ref 0

let r_suspicions = ref 0

let r_replacements = ref 0

let r_churn_requests = ref 0

let r_naive_swaps = ref 0

type reconfig = {
  reconfigs : int;
  seals : int;
  transfers : int;
  activations : int;
  stale_rejects : int;
  epoch_chases : int;
  suspicions : int;
  replacements : int;
  churn_requests : int;
  naive_swaps : int;
}

let reconfig () =
  {
    reconfigs = !r_reconfigs;
    seals = !r_seals;
    transfers = !r_transfers;
    activations = !r_activations;
    stale_rejects = !r_stale_rejects;
    epoch_chases = !r_epoch_chases;
    suspicions = !r_suspicions;
    replacements = !r_replacements;
    churn_requests = !r_churn_requests;
    naive_swaps = !r_naive_swaps;
  }

let reset_reconfig () =
  r_reconfigs := 0;
  r_seals := 0;
  r_transfers := 0;
  r_activations := 0;
  r_stale_rejects := 0;
  r_epoch_chases := 0;
  r_suspicions := 0;
  r_replacements := 0;
  r_churn_requests := 0;
  r_naive_swaps := 0

let note_reconfig () = incr r_reconfigs

let note_seal () = incr r_seals

let note_transfer ~registers = r_transfers := !r_transfers + registers

let note_activation () = incr r_activations

let note_stale_reject () = incr r_stale_rejects

let note_epoch_chase () = incr r_epoch_chases

let note_suspicion () = incr r_suspicions

let note_replacement () = incr r_replacements

let note_churn_request () = incr r_churn_requests

let note_naive_swap () = incr r_naive_swaps

(** {2 Transaction counters} *)

(* Global counters bumped by the Psnap_txn MVCC layer (docs/MODEL.md §15).
   Same discipline as the serving, durable and net counters: plain
   references — exact under the cooperative simulator, approximate
   (unsynchronized increments) under the multi-domain loadgen,
   observability only. *)

let t_begins = ref 0

let t_ro_commits = ref 0

let t_rw_commits = ref 0

let t_conflicts = ref 0

let t_busy_aborts = ref 0

let t_voluntary_aborts = ref 0

let t_lww_overwrites = ref 0

let t_resumes = ref 0

let t_pruned_versions = ref 0

type txn = {
  begins : int;
  ro_commits : int;
  rw_commits : int;
  conflicts : int;
  busy_aborts : int;
  voluntary_aborts : int;
  lww_overwrites : int;
  resumes : int;
  pruned_versions : int;
}

let txn () =
  {
    begins = !t_begins;
    ro_commits = !t_ro_commits;
    rw_commits = !t_rw_commits;
    conflicts = !t_conflicts;
    busy_aborts = !t_busy_aborts;
    voluntary_aborts = !t_voluntary_aborts;
    lww_overwrites = !t_lww_overwrites;
    resumes = !t_resumes;
    pruned_versions = !t_pruned_versions;
  }

let reset_txn () =
  t_begins := 0;
  t_ro_commits := 0;
  t_rw_commits := 0;
  t_conflicts := 0;
  t_busy_aborts := 0;
  t_voluntary_aborts := 0;
  t_lww_overwrites := 0;
  t_resumes := 0;
  t_pruned_versions := 0

let note_txn_begin () = incr t_begins

let note_txn_ro_commit () = incr t_ro_commits

let note_txn_rw_commit () = incr t_rw_commits

let note_txn_conflict () = incr t_conflicts

let note_txn_busy () = incr t_busy_aborts

let note_txn_voluntary_abort () = incr t_voluntary_aborts

let note_txn_lww_overwrite () = incr t_lww_overwrites

let note_txn_resume () = incr t_resumes

let note_txn_pruned k = t_pruned_versions := !t_pruned_versions + k

let txn_aborts t = t.conflicts + t.busy_aborts + t.voluntary_aborts

let txn_abort_rate t =
  let attempts = t.rw_commits + t.conflicts + t.busy_aborts in
  if attempts = 0 then 0.0
  else float_of_int (t.conflicts + t.busy_aborts) /. float_of_int attempts

let pp_txn ppf t =
  Format.fprintf ppf
    "txn: begins=%d commits ro/rw=%d/%d aborts c/b/v=%d/%d/%d \
     abort-rate=%.3f lww-overwrites=%d resumes=%d pruned=%d"
    t.begins t.ro_commits t.rw_commits t.conflicts t.busy_aborts
    t.voluntary_aborts (txn_abort_rate t) t.lww_overwrites t.resumes
    t.pruned_versions

(** {2 Memory faults} *)

type fault_line = {
  kind : Event.fault_kind;
  injected : int;
  absorbed : int;
  fired : int;
}

type mem_faults = {
  per_kind : fault_line list;
  hardened : Psnap_mem.Hardened.stats;
}

let mem_faults () =
  {
    per_kind =
      List.map
        (fun kind ->
          let c = Mem_sim.fault_counts kind in
          {
            kind;
            injected = c.Mem_sim.injected;
            absorbed = c.Mem_sim.absorbed;
            fired = c.Mem_sim.fired;
          })
        Event.all_fault_kinds;
    hardened = Psnap_mem.Hardened.stats ();
  }

let reset_mem_faults () =
  Mem_sim.reset_fault_counts ();
  Psnap_mem.Hardened.reset_stats ()

let total_injected m =
  List.fold_left (fun a l -> a + l.injected) 0 m.per_kind

let total_detected m =
  let h = m.hardened in
  h.Psnap_mem.Hardened.corrupt_detected + h.stale_detected + h.lost_detected

let pp_mem_faults ppf m =
  List.iter
    (fun l ->
      if l.injected + l.absorbed + l.fired > 0 then
        Format.fprintf ppf "fault %-7s injected=%d absorbed=%d fired=%d@."
          (Event.fault_kind_to_string l.kind)
          l.injected l.absorbed l.fired)
    m.per_kind;
  let h = m.hardened in
  Format.fprintf ppf
    "hardened: corrupt=%d stale=%d lost=%d repairs=%d retries=%d"
    h.Psnap_mem.Hardened.corrupt_detected h.stale_detected h.lost_detected
    h.repairs h.retries
