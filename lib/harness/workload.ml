(** Standard measured workloads: [updaters] processes storm a snapshot
    object with updates while [scanners] processes perform partial scans of
    [r] components, all under a configurable scheduler, with per-operation
    step counts recorded.  Each seed is one complete simulated execution;
    metrics are kept per execution so contention measures stay
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
      (** restrict updates to components [0 .. range-1] (adversarial
          workloads that target the scanned set); default: all of [m] *)
  scan_idxs : int array option;
      (** force the scanned set; default: {!scan_set} spreads [r] components
          across the vector *)
}

type run = { samples : Metrics.sample list; worst_collects : int }

type outcome = { runs : run list }

(* scanner j reads r distinct components spread across the vector, offset by
   its index so different scanners overlap partially.  With stride = m/r >= 1
   the offsets k*stride are strictly increasing and below m, so the r
   components are distinct for any r <= m. *)
let scan_set ~m ~r j =
  if r > m then invalid_arg "Workload.scan_set: r > m";
  let stride = m / max r 1 in
  Array.init r (fun k -> (j + (k * stride)) mod m)

let run_one cfg seed =
  let n = cfg.updaters + cfg.scanners in
  let (module S) = cfg.impl in
  let t = S.create ~n (Array.init cfg.m (fun i -> -i - 1)) in
  let hs = Array.init n (fun pid -> S.handle t ~pid) in
  let rec_ = Metrics.create () in
  let worst_collects = ref 0 in
  let range = Option.value cfg.update_range ~default:cfg.m in
  let updater pid () =
    for k = 1 to cfg.updates do
      let i = (k + (pid * 7)) mod range in
      Metrics.measure rec_ ~pid ~kind:"update" (fun () ->
          S.update hs.(pid) i ((pid * 1_000_000) + k))
    done
  in
  let scanner pid () =
    let idxs =
      match cfg.scan_idxs with
      | Some idxs -> idxs
      | None -> scan_set ~m:cfg.m ~r:cfg.r (pid - cfg.updaters)
    in
    for _ = 1 to cfg.scans do
      Metrics.measure rec_ ~pid ~kind:"scan" (fun () ->
          ignore (S.scan hs.(pid) idxs));
      worst_collects := max !worst_collects (S.last_scan_collects hs.(pid))
    done
  in
  let procs =
    Array.init n (fun pid -> if pid < cfg.updaters then updater pid else scanner pid)
  in
  let res = Sim.run ~sched:(cfg.sched seed) procs in
  assert (res.Sim.outcome = Sim.Completed);
  { samples = Metrics.samples rec_; worst_collects = !worst_collects }

let run cfg = { runs = List.init cfg.seeds (run_one cfg) }

(* ---- aggregation over an outcome ---- *)

let kind_samples o kind =
  List.concat_map
    (fun r -> List.filter (fun (s : Metrics.sample) -> s.kind = kind) r.samples)
    o.runs

let worst_steps o kind = Metrics.max_steps (kind_samples o kind)

let mean_steps o kind = Metrics.mean_steps (kind_samples o kind)

let worst_collects o =
  List.fold_left (fun acc r -> max acc r.worst_collects) 0 o.runs

(** Maximum, over all executions, of the point contention seen by any
    operation of [kind]. *)
let max_point_contention o kind =
  List.fold_left
    (fun acc r ->
      max acc
        (Metrics.max_point_contention
           ~over:(fun s -> s.Metrics.kind = kind)
           r.samples))
    0 o.runs

(** Maximum, over operations of kind [around], of the number of operations
    of kind [of_] whose intervals overlap it (within one execution) — the
    per-operation-type interval contention of Section 2, e.g. the Cu of a
    scan. *)
let max_overlap o ~around ~of_ =
  List.fold_left
    (fun acc r ->
      let arounds =
        List.filter (fun (s : Metrics.sample) -> s.kind = around) r.samples
      and others =
        List.filter (fun (s : Metrics.sample) -> s.kind = of_) r.samples
      in
      List.fold_left
        (fun acc s ->
          max acc
            (List.length (List.filter (fun o -> Metrics.overlaps s o) others)))
        acc arounds)
    0 o.runs

let max_interval_contention o kind =
  List.fold_left
    (fun acc r ->
      max acc
        (Metrics.max_interval_contention
           ~over:(fun s -> s.Metrics.kind = kind)
           r.samples))
    0 o.runs
