(* Timing and counting wrappers of the library's public signatures.

   The traced run hands these to the very functors the untraced run uses
   ([Partial_cas.Make], [Fai_cas.Make], [Resilient.Make], [Durable.Make],
   [Txn.Make]), so per-layer figures come from the production code paths
   without touching the library.  Cell accesses are counted, not spanned;
   active-set, snapshot and storage calls are spans (see {!Obs}). *)

open Psnap

(* Every base-object access is one step, the paper's cost unit. *)
module Count_mem (M : Mem.S) : Mem.S with type 'a ref_ = 'a M.ref_ = struct
  type 'a ref_ = 'a M.ref_

  let make = M.make

  let read r =
    Obs.bump (Obs.slot ()) Obs.mem_steps;
    M.read r

  let write r v =
    Obs.bump (Obs.slot ()) Obs.mem_steps;
    M.write r v

  let cas r ~expected ~desired =
    let s = Obs.slot () in
    Obs.bump s Obs.mem_steps;
    Obs.bump s Obs.mem_cas;
    let ok = M.cas r ~expected ~desired in
    if not ok then Obs.bump s Obs.mem_cas_fail;
    ok

  let fetch_and_add r k =
    Obs.bump (Obs.slot ()) Obs.mem_steps;
    M.fetch_and_add r k
end

(* A quorum register access is a protocol round trip, so over the
   replicated backend each access is also timed. *)
module Quorum_mem (M : Mem.S) : Mem.S with type 'a ref_ = 'a M.ref_ = struct
  type 'a ref_ = 'a M.ref_

  let make = M.make

  let[@inline] timed f =
    let s = Obs.slot () in
    Obs.bump s Obs.mem_steps;
    Obs.bump s Obs.net_qops;
    let t0 = Obs.now () in
    match f () with
    | v ->
      Obs.add s Obs.net_qop_ns (Obs.now () - t0);
      v
    | exception e ->
      Obs.add s Obs.net_qop_ns (Obs.now () - t0);
      raise e

  let read r = timed (fun () -> M.read r)

  let write r v = timed (fun () -> M.write r v)

  let cas r ~expected ~desired =
    let ok = timed (fun () -> M.cas r ~expected ~desired) in
    let s = Obs.slot () in
    Obs.bump s Obs.mem_cas;
    if not ok then Obs.bump s Obs.mem_cas_fail;
    ok

  let fetch_and_add r k = timed (fun () -> M.fetch_and_add r k)
end

module Trace_aset (A : Active_set.S) : Active_set.S = struct
  type t = A.t

  type handle = A.handle

  let name = A.name

  let create = A.create

  let handle = A.handle

  let join h =
    let s = Obs.slot () in
    Obs.enter s;
    A.join h;
    ignore (Obs.leave s Obs.k_aset_join)

  let leave h =
    let s = Obs.slot () in
    Obs.enter s;
    A.leave h;
    ignore (Obs.leave s Obs.k_aset_leave)

  let get_set t =
    let s = Obs.slot () in
    Obs.enter s;
    let l = A.get_set t in
    ignore (Obs.leave s Obs.k_aset_getset);
    Obs.add s Obs.getset_size (List.length l);
    l
end

(* The inner partial snapshot.  A scan issued from inside a durable
   update is that update's checkpoint: it gets a span kind of its own, and
   its start is noted so the persist layer can charge the checkpoint
   separately. *)
module Trace_snap (S : Snapshot.S) : Snapshot.S = struct
  type 'a t = 'a S.t

  type 'a handle = 'a S.handle

  let name = S.name

  let create = S.create

  let handle = S.handle

  let update h i v =
    let s = Obs.slot () in
    Obs.enter s;
    S.update h i v;
    ignore (Obs.leave s Obs.k_snap_update)

  let scan h idxs =
    let s = Obs.slot () in
    if s.Obs.in_durable then s.Obs.ckpt_start <- Obs.now ();
    Obs.enter s;
    let r = S.scan h idxs in
    if s.Obs.in_durable then ignore (Obs.leave s Obs.k_snap_ckpt_scan)
    else begin
      ignore (Obs.leave s Obs.k_snap_scan);
      Obs.bump s Obs.snap_scans_seen;
      Obs.add s Obs.collects (S.last_scan_collects h)
    end;
    r

  let last_scan_collects = S.last_scan_collects
end

module Trace_storage (St : Persist.Storage.S) : Persist.Storage.S = struct
  include St

  let append t b =
    let s = Obs.slot () in
    Obs.enter s;
    St.append t b;
    let d = Obs.leave s Obs.k_storage_append in
    Obs.add s Obs.storage_bytes (String.length b);
    if s.Obs.ckpt_start >= 0 then Obs.add s Obs.storage_ns_in_ckpt d

  let sync t =
    let s = Obs.slot () in
    Obs.enter s;
    St.sync t;
    let d = Obs.leave s Obs.k_storage_sync in
    if s.Obs.ckpt_start >= 0 then Obs.add s Obs.storage_ns_in_ckpt d
end
