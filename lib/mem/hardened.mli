(** Self-validating and replicated registers: algorithmic hardening against
    the memory-fault model of docs/MODEL.md §9.

    Each stored value travels as a {e tagged} record — payload plus
    sequence number, unique nonce and checksum — so a corrupted cell is
    detected by checksum mismatch, a stale (superseded) value by sequence
    regression, and a dropped or false-acknowledged write by read-back
    verification.  {!Selfcheck} detects and repairs on a single base cell;
    {!Replicated} additionally spreads each register over [k] base cells
    and tolerates ⌊(k−1)/2⌋ of them being simultaneously faulty (including
    permanently stuck).

    Hardened operations cost several base-object steps per logical access;
    the step bounds of the paper's theorems apply to logical accesses. *)

(** Detection and repair counters, cumulative across all hardened
    registers (both functors) since the last {!reset_stats}. *)
type stats = {
  corrupt_detected : int;  (** checksum mismatches observed *)
  stale_detected : int;  (** sequence regressions observed *)
  lost_detected : int;  (** writes found missing by read-back *)
  repairs : int;  (** repair writes issued *)
  retries : int;  (** operation-level retries after a detected fault *)
}

val stats : unit -> stats

val evidence : unit -> int
(** [corrupt_detected + stale_detected + lost_detected + retries] of
    {!stats}, without allocating: the fault evidence a supervisor samples
    around each operation. *)

val reset_stats : unit -> unit

(** A single base cell with tagged values: detects corruption and
    staleness, repairs from the last known-good value, verifies its own
    writes.  Cannot survive a stuck cell — use {!Replicated} for that. *)
module Selfcheck (_ : Mem_intf.S) : Mem_intf.S

(** [k]-fold replication over the base memory: reads take the newest
    validly-tagged replica and read-repair the rest; writes install on
    every replica with read-back verification; CAS linearizes at a
    designated commit replica and fails over when that replica stops
    accepting writes.  Tolerates ⌊(k−1)/2⌋ faulty replicas.
    @raise Invalid_argument at functor application if [k < 1]. *)
module Replicated (_ : Mem_intf.S) (_ : sig
  val k : int
end) : Mem_intf.S
