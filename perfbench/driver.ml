(* Closed-loop driver: each client domain replays its stream, waiting for
   every call before issuing the next, as in-process callers do.

   Time splits into a warmup, whose operations run but are not recorded,
   and a measured window cut into equal sub-windows.  An operation belongs
   to the sub-window in which it started; a domain stops at the first
   operation that would start after the window, so the per-domain counters
   (zeroed when the window opens) cover exactly the recorded operations.
   Latencies are kept raw, outside the OCaml heap, so percentiles are
   exact and the heap figure is the library's. *)

module B = Bigarray.Array1

(* A growable buffer of latency samples (ns). *)
module Samples = struct
  type t = { mutable a : (int, Bigarray.int_elt, Bigarray.c_layout) B.t; mutable n : int }

  let create () = { a = B.create Bigarray.int Bigarray.c_layout 65536; n = 0 }

  let push t v =
    if t.n = B.dim t.a then begin
      let a = B.create Bigarray.int Bigarray.c_layout (2 * t.n) in
      B.blit t.a (B.sub a 0 t.n);
      t.a <- a
    end;
    B.unsafe_set t.a t.n v;
    t.n <- t.n + 1
end

(* Every domain the benchmark starts (clients, replicas, checkers) gets a
   4M-word (32 MB) minor heap.  With OCaml 5's default 256k words, the
   stop-the-world minor collections of the two client domains made every
   host stall of one domain a stall of both: txn-transfer's per-window
   update p99 swung 37-248 us within one run, against 22-29 us here. *)
let minor_heap_words = 4 * 1024 * 1024

let set_minor_heap () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = minor_heap_words }

let spawn f =
  Domain.spawn (fun () ->
      set_minor_heap ();
      f ())

(* What [exec] returns for one operation: its kind ([Gen.k_update],
   [Gen.k_scan], [Gen.k_audit]), plus [failed] when the library reported a
   failure (a degraded scan, an unavailable quorum). *)
let failed = 4

type config = {
  clients : int;
  warmup_s : float;
  measure_s : float;
  windows : int;
  tracing : bool;
}

type part = {
  obs : Obs.part;
  lat : Samples.t array; (* by kind: update, scan *)
  bounds : int array array; (* by kind: sample count at each window end *)
  win_ops : int array;
  attempted : int;
  nfailed : int;
  by_kind : int array; (* update, scan, audit *)
  minor_words : float;
}

type result = {
  window_s : float;
  parts : part list;
  major_collections : int;
  t_start : int; (* measured window opens, Obs clock *)
}

let run cfg ~(client : int -> int -> int) =
  let window_ns = int_of_float (cfg.measure_s *. 1e9) / cfg.windows in
  let t0 = Obs.now () in
  let warm_end = t0 + int_of_float (cfg.warmup_s *. 1e9) in
  let meas_end = warm_end + (window_ns * cfg.windows) in
  let abort = Atomic.make false in
  let worker pid () =
    let s = Obs.install ~dom:pid ~tracing:cfg.tracing in
    let exec = client pid in
    let lat = [| Samples.create (); Samples.create () |] in
    let bounds = [| Array.make cfg.windows 0; Array.make cfg.windows 0 |] in
    let win_ops = Array.make cfg.windows 0 in
    let by_kind = Array.make 3 0 in
    let nfailed = ref 0 and cur_w = ref 0 and measuring = ref false in
    let words0 = ref 0.0 and pos = ref 0 and stop = ref false in
    let close_windows upto =
      while !cur_w < upto do
        bounds.(0).(!cur_w) <- lat.(0).Samples.n;
        bounds.(1).(!cur_w) <- lat.(1).Samples.n;
        incr cur_w
      done
    in
    (try
       while not !stop do
         let ts = Obs.now () in
         if ts >= meas_end || Atomic.get abort then stop := true
         else begin
           if (not !measuring) && ts >= warm_end then begin
             Obs.reset s;
             words0 := Gc.minor_words ();
             measuring := true
           end;
           let r =
             if cfg.tracing then begin
               let c = s.Obs.c in
               let st0 = c.(Obs.mem_steps) and gs0 = c.(Obs.k_aset_getset * Obs.nfields) in
               Obs.begin_request s;
               Obs.enter s;
               let r = exec !pos in
               let k = r land 3 in
               (* the op kind is the request span's kind: Obs.k_update,
                  k_scan and k_audit equal Gen.k_update, k_scan, k_audit *)
               ignore (Obs.leave s k);
               if k = Gen.k_update then begin
                 Obs.add s Obs.steps_in_updates (c.(Obs.mem_steps) - st0);
                 Obs.add s Obs.getset_in_updates
                   (c.(Obs.k_aset_getset * Obs.nfields) - gs0)
               end
               else if k = Gen.k_scan then
                 Obs.add s Obs.steps_in_scans (c.(Obs.mem_steps) - st0);
               r
             end
             else exec !pos
           in
           let te = Obs.now () in
           incr pos;
           if !measuring then begin
             let w = (ts - warm_end) / window_ns in
             if w > !cur_w then close_windows w;
             win_ops.(w) <- win_ops.(w) + 1;
             let k = r land 3 in
             by_kind.(k) <- by_kind.(k) + 1;
             if r land failed <> 0 then incr nfailed;
             if k < 2 then Samples.push lat.(k) (te - ts)
           end
         end
       done
     with e ->
       Atomic.set abort true;
       raise e);
    close_windows cfg.windows;
    let words = Gc.minor_words () -. !words0 in
    {
      obs = Obs.part s;
      lat;
      bounds;
      win_ops;
      attempted = Array.fold_left ( + ) 0 win_ops;
      nfailed = !nfailed;
      by_kind;
      minor_words = words;
    }
  in
  let doms = List.init cfg.clients (fun pid -> spawn (worker pid)) in
  (* wake every 50 ms, so a failed check ends the run early *)
  let rec sleep_until t =
    let d = float_of_int (t - Obs.now ()) /. 1e9 in
    if d > 0.0 && not (Atomic.get abort) then begin
      Unix.sleepf (Float.min d 0.05);
      sleep_until t
    end
  in
  sleep_until warm_end;
  let maj0 = (Gc.quick_stat ()).Gc.major_collections in
  sleep_until meas_end;
  let maj1 = (Gc.quick_stat ()).Gc.major_collections in
  (* join every domain before re-raising the first failure *)
  let joined = List.map (fun d -> try Ok (Domain.join d) with e -> Error e) doms in
  let parts =
    List.map (function Ok p -> p | Error e -> raise e) joined
  in
  {
    window_s = float_of_int window_ns /. 1e9;
    parts;
    major_collections = maj1 - maj0;
    t_start = warm_end;
  }

(* ---- reading a result ---- *)

let attempted r = List.fold_left (fun a p -> a + p.attempted) 0 r.parts

let nfailed r = List.fold_left (fun a p -> a + p.nfailed) 0 r.parts

let count_kind r k = List.fold_left (fun a p -> a + p.by_kind.(k)) 0 r.parts

let windows r = Array.length (List.hd r.parts).win_ops

let median xs =
  let a = Array.copy xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Operations per second in each sub-window. *)
let window_throughputs r =
  Array.init (windows r) (fun w ->
      float_of_int (List.fold_left (fun a p -> a + p.win_ops.(w)) 0 r.parts)
      /. r.window_s)

let throughput r = median (window_throughputs r)

(* Nearest-rank percentile [p] (0..1) of each sub-window's samples of
   kind [k], in ns; sub-windows without samples are skipped. *)
let window_percentiles r k p =
  List.filter_map Fun.id
    (List.init (windows r) (fun w ->
         let slices =
           List.map
             (fun part ->
               let lo = if w = 0 then 0 else part.bounds.(k).(w - 1) in
               let hi = part.bounds.(k).(w) in
               Array.init (hi - lo) (fun j -> B.get part.lat.(k).Samples.a (lo + j)))
             r.parts
         in
         let a = Array.concat slices in
         let n = Array.length a in
         if n = 0 then None
         else begin
           Array.sort compare a;
           let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
           Some (float_of_int a.(max 0 (min (n - 1) (rank - 1))))
         end))
  |> Array.of_list

let samples r k = List.fold_left (fun a p -> a + p.lat.(k).Samples.n) 0 r.parts
