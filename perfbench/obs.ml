(* Measurement state of one client domain: exact counters, span
   accumulators and a sampled span buffer.

   Every number a wrapper records lives in the calling domain's own slot
   (plain arrays reached through domain-local storage): no sharing, no
   atomics, so the counts are exact under any number of domains.  A client
   domain zeroes its slot when its measured window opens and hands a copy
   of the counters back when it stops; [Driver] sums the copies after
   the domains join, so warmup and set-up never leak into a figure.

   Spans nest: [enter] pushes a frame, [leave] pops it and charges the
   frame's duration to its parent's child time, so a kind's self time is
   its duration minus what its child spans cover.  Allocation is tracked
   the same way with [Gc.minor_words] (domain-local in OCaml 5). *)

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now () = Int64.to_int (clock_ns ())

let since t0 = float_of_int (now () - t0) /. 1e9

(* ---- span kinds: one (layer, op) pair each ---- *)

let k_update = 0 (* user request: an update, a transfer *)
let k_scan = 1 (* user request: a scan, a read-only transaction *)
let k_audit = 2 (* user request: a full-width audit *)
let k_resilient_scan = 3
let k_persist_update = 4
let k_txn_rw = 5 (* one read-write attempt: begin .. commit *)
let k_txn_commit = 6
let k_txn_ro = 7
let k_snap_update = 8
let k_snap_scan = 9
let k_aset_getset = 10
let k_aset_join = 11
let k_aset_leave = 12
let k_storage_append = 13
let k_storage_sync = 14
let k_snap_ckpt_scan = 15 (* the full-width scan of a durable checkpoint *)
let nkinds = 16

let kind_layer =
  [| "bench"; "bench"; "bench"; "resilient"; "persist"; "txn"; "txn"; "txn";
     "snapshot"; "snapshot"; "activeset"; "activeset"; "activeset";
     "storage"; "storage"; "snapshot" |]

let kind_op =
  [| "update"; "scan"; "audit"; "scan"; "update"; "rw"; "commit"; "ro";
     "update"; "scan"; "get_set"; "join"; "leave"; "append"; "sync"; "checkpoint_scan" |]

(* per-kind fields *)
let f_count = 0
let f_ns = 1 (* inclusive duration *)
let f_self_ns = 2
let f_words = 3 (* inclusive minor words *)
let f_self_words = 4
let nfields = 5

let field k f = (k * nfields) + f

(* ---- plain counters, after the per-kind fields ---- *)

let base = nkinds * nfields
let mem_steps = base + 0
let mem_cas = base + 1
let mem_cas_fail = base + 2
let steps_in_updates = base + 3
let steps_in_scans = base + 4
let getset_in_updates = base + 5
let getset_size = base + 6
let collects = base + 7
let res_rounds = base + 8
let res_shards = base + 9
let res_degraded = base + 10
let snap_scans_seen = base + 11 (* inner sub-scans, for shards per scan *)
let storage_bytes = base + 12
let storage_ns_in_ckpt = base + 13
let checkpoints = base + 14
let checkpoint_ns = base + 15
let txn_commits = base + 16
let txn_conflicts = base + 17
let txn_busy = base + 18
let net_qops = base + 19
let net_qop_ns = base + 20
let ncounters = base + 21

(* ---- the per-domain slot ---- *)

let max_depth = 32
let span_ints = 7 (* kind, start, end, id, parent, request, domain *)
let span_capacity = 1 lsl 16 (* spans kept per domain *)
let sample_every = 64 (* keep the spans of every 64th request *)

type slot = {
  c : int array;
  st_start : int array;
  st_child_ns : int array;
  st_words : float array;
  st_child_words : float array;
  st_id : int array;
  mutable depth : int;
  mutable next_id : int;
  mutable dom : int;
  mutable req : int;
  mutable sampled : bool;
  mutable tracing : bool;
  mutable in_durable : bool;
  mutable ckpt_start : int; (* -1: no checkpoint under way *)
  spans : int array;
  mutable nspans : int;
}

let fresh () =
  {
    c = Array.make ncounters 0;
    st_start = Array.make max_depth 0;
    st_child_ns = Array.make max_depth 0;
    st_words = Array.make max_depth 0.0;
    st_child_words = Array.make max_depth 0.0;
    st_id = Array.make max_depth 0;
    depth = 0;
    next_id = 0;
    dom = 0;
    req = 0;
    sampled = false;
    tracing = false;
    in_durable = false;
    ckpt_start = -1;
    spans = [||];
    nspans = 0;
  }

let key = Domain.DLS.new_key fresh

let slot () = Domain.DLS.get key

(* Called by a client domain before its first operation: [tracing]
   allocates the span buffer. *)
let install ~dom ~tracing =
  let s =
    { (fresh ()) with
      dom;
      tracing;
      spans = (if tracing then Array.make (span_capacity * span_ints) 0 else [||]) }
  in
  Domain.DLS.set key s;
  s

(* Open the measured window: forget everything counted during warmup. *)
let reset s =
  Array.fill s.c 0 ncounters 0;
  s.nspans <- 0

let[@inline] bump s i = s.c.(i) <- s.c.(i) + 1

let[@inline] add s i n = s.c.(i) <- s.c.(i) + n

let begin_request s =
  s.req <- s.req + 1;
  s.sampled <- s.tracing && s.req mod sample_every = 0

let enter s =
  let d = s.depth in
  s.st_start.(d) <- now ();
  s.st_child_ns.(d) <- 0;
  s.st_words.(d) <- Gc.minor_words ();
  s.st_child_words.(d) <- 0.0;
  s.next_id <- s.next_id + 1;
  s.st_id.(d) <- s.next_id;
  s.depth <- d + 1

(* Close the innermost frame as a span of kind [k]; returns its duration. *)
let leave s k =
  let t = now () and w = Gc.minor_words () in
  let d = s.depth - 1 in
  s.depth <- d;
  let dur = t - s.st_start.(d) in
  let words = w -. s.st_words.(d) in
  let c = s.c in
  let b = k * nfields in
  c.(b + f_count) <- c.(b + f_count) + 1;
  c.(b + f_ns) <- c.(b + f_ns) + dur;
  c.(b + f_self_ns) <- c.(b + f_self_ns) + dur - s.st_child_ns.(d);
  c.(b + f_words) <- c.(b + f_words) + int_of_float words;
  c.(b + f_self_words) <-
    c.(b + f_self_words) + int_of_float (words -. s.st_child_words.(d));
  if d > 0 then begin
    s.st_child_ns.(d - 1) <- s.st_child_ns.(d - 1) + dur;
    s.st_child_words.(d - 1) <- s.st_child_words.(d - 1) +. words
  end;
  if s.sampled && s.nspans < span_capacity then begin
    let o = s.nspans * span_ints in
    let sp = s.spans in
    sp.(o) <- k;
    sp.(o + 1) <- s.st_start.(d);
    sp.(o + 2) <- t;
    sp.(o + 3) <- s.st_id.(d);
    sp.(o + 4) <- (if d > 0 then s.st_id.(d - 1) else 0);
    sp.(o + 5) <- s.req;
    sp.(o + 6) <- s.dom;
    s.nspans <- s.nspans + 1
  end;
  dur

(* What a client domain hands back when it stops. *)
type part = { counts : int array; span_buf : int array; span_count : int }

let part s =
  { counts = Array.copy s.c; span_buf = s.spans; span_count = s.nspans }

let sum parts =
  let c = Array.make ncounters 0 in
  List.iter
    (fun p -> Array.iteri (fun i v -> c.(i) <- c.(i) + v) p.counts)
    parts;
  c

(* One JSON object per line.  Times are ns since [t0]; [span] and
   [parent] are domain-local ids, unique together with [domain]; spans of
   one request share [req]. *)
let write_spans path ~t0 parts =
  let oc = open_out path in
  List.iter
    (fun p ->
      for i = 0 to p.span_count - 1 do
        let o = i * span_ints in
        let sp = p.span_buf in
        let k = sp.(o) in
        Printf.fprintf oc
          "{\"layer\":%S,\"op\":%S,\"start_ns\":%d,\"end_ns\":%d,\"domain\":%d,\"span\":%d,\"parent\":%d,\"req\":%d}\n"
          kind_layer.(k) kind_op.(k)
          (sp.(o + 1) - t0)
          (sp.(o + 2) - t0)
          sp.(o + 6) sp.(o + 3) sp.(o + 4) sp.(o + 5)
      done)
    parts;
  close_out oc
