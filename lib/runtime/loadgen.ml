(* Domains-based load generator for the Atomic-backed snapshot
   implementations: one OCaml domain per simulated client, closed- or
   open-loop arrivals, uniform or zipfian key popularity, configurable
   update:scan mix and scan width, warmup exclusion, per-domain latency
   histograms merged into a single report after the domains join.

   Timing uses bechamel's monotonic clock (CLOCK_MONOTONIC, ns).  Values
   written are unique per (domain, sequence) so the resulting traffic is
   also usable under history checkers. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Zipfian sampler over ranks 0..n-1 with exponent theta: weight of rank
   i is (i+1)^-theta.  The CDF is precomputed once (O(n) floats) and
   shared read-only across domains; a sample is one uniform draw plus a
   binary search — exact, not the YCSB approximation. *)
module Zipf = struct
  type t = { cdf : float array }

  let create ~theta ~n =
    if n < 1 then invalid_arg "Zipf.create: n < 1";
    if theta < 0.0 then invalid_arg "Zipf.create: theta < 0";
    let cdf = Array.make n 0.0 in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. (1.0 /. (float_of_int (i + 1) ** theta));
      cdf.(i) <- !acc
    done;
    let z = !acc in
    for i = 0 to n - 1 do
      cdf.(i) <- cdf.(i) /. z
    done;
    { cdf }

  let sample t rng =
    let u = Random.State.float rng 1.0 in
    (* smallest i with cdf.(i) >= u *)
    let lo = ref 0 and hi = ref (Array.length t.cdf - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.cdf.(mid) >= u then hi := mid else lo := mid + 1
    done;
    !lo
end

type dist = Uniform | Zipfian of float

type mix = Ratio of float | Dedicated of { updaters : int; scanners : int }

type loop = Closed | Open_rate of float

type scan_pattern = Random_set | Window

type config = {
  m : int;
  r : int;
  domains : int;
  dist : dist;
  mix : mix;
  loop : loop;
  scan_pattern : scan_pattern;
  warmup_s : float;
  duration_s : float;
  seed : int;
}

let default =
  {
    m = 1024;
    r = 8;
    domains = 2;
    dist = Uniform;
    mix = Ratio 0.5;
    loop = Closed;
    scan_pattern = Random_set;
    warmup_s = 0.2;
    duration_s = 1.0;
    seed = 0;
  }

type report = {
  elapsed_s : float;  (** measured post-warmup wall time *)
  updates : int;
  scans : int;
  update_lat : Histogram.t;
  scan_lat : Histogram.t;
}

let throughput rep =
  if rep.elapsed_s <= 0.0 then 0.0
  else float_of_int (rep.updates + rep.scans) /. rep.elapsed_s

(* open loop: one arrival every [interval_ns] per domain *)
let interval_ns cfg =
  match cfg.loop with
  | Closed -> 0
  | Open_rate rate -> int_of_float (1e9 *. float_of_int cfg.domains /. rate)

let validate cfg =
  if cfg.m < 1 then invalid_arg "Loadgen: m < 1";
  if cfg.r < 1 || cfg.r > cfg.m then invalid_arg "Loadgen: need 1 <= r <= m";
  if cfg.domains < 1 then invalid_arg "Loadgen: domains < 1";
  if cfg.duration_s <= 0.0 then invalid_arg "Loadgen: duration <= 0";
  (match cfg.dist with
  | Zipfian theta when theta < 0.0 -> invalid_arg "Loadgen: zipf theta < 0"
  | _ -> ());
  (match cfg.mix with
  | Ratio p when p < 0.0 || p > 1.0 -> invalid_arg "Loadgen: mix not in [0,1]"
  | Dedicated { updaters; scanners } ->
    if updaters < 0 || scanners < 0 || updaters + scanners <> cfg.domains then
      invalid_arg "Loadgen: updaters + scanners must equal domains"
  | Ratio _ -> ());
  match cfg.loop with
  | Open_rate r when r <= 0.0 -> invalid_arg "Loadgen: open-loop rate <= 0"
  | Open_rate _ when interval_ns cfg < 1 ->
    invalid_arg "Loadgen: open-loop rate above 1e9 * domains ops/s"
  | _ -> ()

let run (module S : Psnap_snapshot.Snapshot_intf.S) cfg =
  validate cfg;
  let t = S.create ~n:cfg.domains (Array.init cfg.m (fun i -> -(i + 1))) in
  let zipf =
    match cfg.dist with
    | Zipfian theta -> Some (Zipf.create ~theta ~n:cfg.m)
    | Uniform -> None
  in
  let stop = Atomic.make false in
  let t0 = now_ns () in
  let warm_end = t0 + int_of_float (cfg.warmup_s *. 1e9) in
  let worker pid () =
    let rng = Random.State.make [| cfg.seed; pid; 0x9e3779b9 |] in
    let h = S.handle t ~pid in
    let uh = Histogram.create () and sh = Histogram.create () in
    let idxs = Array.make cfg.r 0 in
    let seq = ref 0 in
    let sample_idx () =
      match zipf with
      | Some z -> Zipf.sample z rng
      | None -> Random.State.int rng cfg.m
    in
    let is_update () =
      match cfg.mix with
      | Ratio p -> Random.State.float rng 1.0 < p
      | Dedicated { updaters; _ } -> pid < updaters
    in
    (* open loop: arrivals every [interval] ns per domain, latency measured
       from the scheduled arrival (coordinated-omission-aware: if the
       object is slow, queued arrivals inflate the reported latency) *)
    let interval = interval_ns cfg in
    let next = ref (t0 + (pid * 1000)) in
    while not (Atomic.get stop) do
      let issue_t =
        match cfg.loop with
        | Closed -> now_ns ()
        | Open_rate _ ->
          while now_ns () < !next && not (Atomic.get stop) do
            Domain.cpu_relax ()
          done;
          !next
      in
      (if is_update () then begin
         incr seq;
         S.update h (sample_idx ()) ((pid * 1_000_000_000) + !seq);
         let d = now_ns () - issue_t in
         if issue_t >= warm_end then Histogram.record uh d
       end
       else begin
         (match cfg.scan_pattern with
         | Random_set ->
           for k = 0 to cfg.r - 1 do
             idxs.(k) <- sample_idx ()
           done
         | Window ->
           (* contiguous range read: the distribution picks the window
              base, the scan covers the next r components (mod m) *)
           let base = sample_idx () in
           for k = 0 to cfg.r - 1 do
             idxs.(k) <- (base + k) mod cfg.m
           done);
         ignore (S.scan h idxs);
         let d = now_ns () - issue_t in
         if issue_t >= warm_end then Histogram.record sh d
       end);
      if interval > 0 then next := !next + interval
    done;
    (uh, sh)
  in
  let doms = Array.init cfg.domains (fun pid -> Domain.spawn (worker pid)) in
  Unix.sleepf (cfg.warmup_s +. cfg.duration_s);
  Atomic.set stop true;
  let t_stop = now_ns () in
  let parts = Array.map Domain.join doms in
  let update_lat = Histogram.create () and scan_lat = Histogram.create () in
  Array.iter
    (fun (uh, sh) ->
      Histogram.merge_into ~dst:update_lat uh;
      Histogram.merge_into ~dst:scan_lat sh)
    parts;
  {
    elapsed_s = float_of_int (t_stop - max warm_end t0) /. 1e9;
    updates = Histogram.count update_lat;
    scans = Histogram.count scan_lat;
    update_lat;
    scan_lat;
  }

(* ---- reporting ---- *)

let dist_to_string = function
  | Uniform -> "uniform"
  | Zipfian theta -> Printf.sprintf "zipf(%.2f)" theta

let mix_to_string = function
  | Ratio p -> Printf.sprintf "%.0f:%.0f" (100.0 *. p) (100.0 *. (1.0 -. p))
  | Dedicated { updaters; scanners } ->
    Printf.sprintf "%du+%ds" updaters scanners

let loop_to_string = function
  | Closed -> "closed"
  | Open_rate r -> Printf.sprintf "open@%.0f/s" r

let scan_pattern_to_string = function
  | Random_set -> "random"
  | Window -> "window"

let json_fields ~impl cfg rep =
  let h_fields prefix h =
    [
      (prefix ^ "_p50_ns", string_of_int (Histogram.percentile h 50.0));
      (prefix ^ "_p90_ns", string_of_int (Histogram.percentile h 90.0));
      (prefix ^ "_p99_ns", string_of_int (Histogram.percentile h 99.0));
      (prefix ^ "_p999_ns", string_of_int (Histogram.percentile h 99.9));
      (prefix ^ "_max_ns", string_of_int (Histogram.max_value h));
      (prefix ^ "_mean_ns", Printf.sprintf "%.1f" (Histogram.mean h));
    ]
  in
  [
    ("impl", Printf.sprintf "%S" impl);
    ("m", string_of_int cfg.m);
    ("r", string_of_int cfg.r);
    ("domains", string_of_int cfg.domains);
    ("dist", Printf.sprintf "%S" (dist_to_string cfg.dist));
    ("mix", Printf.sprintf "%S" (mix_to_string cfg.mix));
    ("loop", Printf.sprintf "%S" (loop_to_string cfg.loop));
    ("scan_pattern", Printf.sprintf "%S" (scan_pattern_to_string cfg.scan_pattern));
    ("warmup_s", Printf.sprintf "%.3f" cfg.warmup_s);
    ("duration_s", Printf.sprintf "%.3f" cfg.duration_s);
    ("elapsed_s", Printf.sprintf "%.3f" rep.elapsed_s);
    ("updates", string_of_int rep.updates);
    ("scans", string_of_int rep.scans);
    ("throughput_ops_s", Printf.sprintf "%.0f" (throughput rep));
  ]
  @ h_fields "update" rep.update_lat
  @ h_fields "scan" rep.scan_lat
