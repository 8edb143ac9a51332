(* The four workloads, each a closed loop through a different stack of the
   library's public functors.  Every workload is a functor over its stack,
   applied twice: to the library's own modules for the untraced run, and
   to the {!Wrap} wrappers for the traced run.  Two test-only stacks are
   the negative controls of the output checks. *)

open Psnap

type variant =
  | Plain
  | Traced
  | Swapped  (** range-read over a snapshot that swaps two components *)
  | Lww  (** txn-transfer in the deliberately unsound last-writer-wins mode *)

type instance = {
  setup_s : float;
      (** time to build the stack: create the components, spawn the
          replica domains, build the handles *)
  client : int -> int -> int;
      (** [client pid] runs in client domain [pid]; applied to a stream
          position it performs that operation and returns its kind, plus
          [Driver.failed] when the library reported a failure.  A wrong
          output raises [Gen.Check_failed]. *)
  check : unit -> string;
      (** after the run: the end-of-run output check (raises
          [Gen.Check_failed]); returns a one-line account *)
  teardown : unit -> unit;
}

type t = {
  name : string;
  clients : int;
  window_s : float;
      (** length of a measured window: long enough that the rarer op kind
          has ten samples beyond its p99 in every window *)
  stack : string;
  prepare : seed:int -> variant -> instance;
      (** [prepare ~seed] draws the operation streams; applying the result
          to a variant builds the stack (the timed set-up). *)
}

let wrap_pos pos = pos land (Gen.stream_len - 1)

let window ~m ~base idxs =
  for k = 0 to Array.length idxs - 1 do
    idxs.(k) <- (base + k) mod m
  done

(* ---- the stacks ---- *)

module CM = Wrap.Count_mem (Mem.Atomic)
module T_aset = Wrap.Trace_aset (Active_set.Fai_cas (CM))
module T_fig3 = Wrap.Trace_snap (Snapshot.Fig3 (CM) (T_aset))

(* Test-only: component 0's updates land in component 1 and vice versa. *)
module Swap_snap (S : Snapshot.S) : Snapshot.S = struct
  include S

  let update h i v = S.update h (match i with 0 -> 1 | 1 -> 0 | i -> i) v
end

(* ---- range-read ---- *)

module Range_cfg = struct
  (* bin/loadgen.ml's supervision constants *)
  let shards = 8
  let partition = `Range
  let max_rounds = 6
  let backoff_base = 2
  let backoff_max = 16
  let breaker_threshold = 3
  let breaker_cooldown = 4
  let probe_successes = 2
  let heal_quiesce = 64
end

module Range_read (M : Mem.S) (S : Snapshot.S) = struct
  module RS = Runtime.Resilient.Make (M) (S) (S) (Range_cfg)

  let m = 65_536
  let r = 16
  let clients = 2

  let traced_scan h idxs =
    let s = Obs.slot () in
    let sub0 = s.Obs.c.(Obs.snap_scans_seen) in
    Obs.enter s;
    let o = RS.scan_outcome h idxs in
    ignore (Obs.leave s Obs.k_resilient_scan);
    let rounds = max 1 (RS.last_scan_rounds h) in
    Obs.add s Obs.res_rounds rounds;
    Obs.add s Obs.res_shards ((s.Obs.c.(Obs.snap_scans_seen) - sub0) / rounds);
    if RS.last_scan_degraded h then Obs.bump s Obs.res_degraded;
    o

  let build ~tracing (streams, targets) =
    let init = Array.init m Gen.initial in
    let t0 = Obs.now () in
    let t = RS.create ~n:clients init in
    let hs = Array.init clients (fun pid -> RS.handle t ~pid) in
    let setup_s = Obs.since t0 in
    let checkers = Array.init clients (fun _ -> Gen.Vcheck.create ~m ~targets) in
    let final_seq = Array.make clients 0 in
    let client pid =
      let h = hs.(pid) and st = streams.(pid) and ck = checkers.(pid) in
      let idxs = Array.make r 0 and seq = ref 0 in
      fun pos ->
        let op = st.(wrap_pos pos) in
        let x = Gen.payload op in
        if Gen.kind op = Gen.k_update then begin
          incr seq;
          RS.update h x (Gen.encode ~m ~writers:clients ~w:pid ~seq:!seq x);
          final_seq.(pid) <- !seq;
          Gen.k_update
        end
        else begin
          window ~m ~base:x idxs;
          match if tracing then traced_scan h idxs else RS.scan_outcome h idxs with
          | RS.Atomic vs ->
            Gen.Vcheck.scan ck idxs vs;
            Gen.k_scan
          | RS.Degraded { values; _ } ->
            Gen.Vcheck.scan ck idxs values;
            Gen.k_scan lor Driver.failed
        end
    in
    let check () =
      Gen.Vcheck.no_future checkers ~final_seq;
      Printf.sprintf "every scanned value was initial or written there, per-writer monotone (%d updates)"
        (Array.fold_left ( + ) 0 final_seq)
    in
    { setup_s; client; check; teardown = ignore }
end

module Range_plain = Range_read (Mem.Atomic) (Mc_fig3)
module Range_traced = Range_read (CM) (T_fig3)
module Range_swapped = Range_read (Mem.Atomic) (Swap_snap (Mc_fig3))

let range_read =
  {
    name = "range-read";
    clients = Range_plain.clients;
    window_s = 0.5;
    stack = "Resilient.Make (Mem.Atomic) (Mc_fig3) (Mc_fig3), 8 Range shards";
    prepare =
      (fun ~seed ->
        let streams =
          Gen.with_targets
            (Array.init Range_plain.clients (fun pid ->
                 Gen.mixed ~seed ~salt:1 ~pid ~m:Range_plain.m ~update_pct:20))
        in
        function
        | Plain -> Range_plain.build ~tracing:false streams
        | Traced -> Range_traced.build ~tracing:true streams
        | Swapped -> Range_swapped.build ~tracing:false streams
        | Lww -> invalid_arg "range-read has no Lww variant");
  }

(* ---- durable-write ---- *)

module Durable_write (M : Mem.S) (S : Snapshot.S) (St : Persist.Storage.S) = struct
  module D = Persist.Durable.Make (M) (S) (St)

  let m = 1024
  let r = 16
  let clients = 2

  (* write-ahead: append + one sync per commit; a sealed checkpoint every
     4,096 commits *)
  let config = { D.checkpoint_every = 4096; write_ahead = true }

  let traced_update h i v =
    let s = Obs.slot () in
    s.Obs.in_durable <- true;
    Obs.enter s;
    D.update h i v;
    ignore (Obs.leave s Obs.k_persist_update);
    s.Obs.in_durable <- false;
    if s.Obs.ckpt_start >= 0 then begin
      Obs.bump s Obs.checkpoints;
      Obs.add s Obs.checkpoint_ns (Obs.now () - s.Obs.ckpt_start);
      s.Obs.ckpt_start <- -1
    end

  let build ~tracing (streams, targets) =
    let init = Array.init m Gen.initial in
    let n = clients + 1 (* pid [clients] takes the final scans *) in
    let t0 = Obs.now () in
    let t = D.create_with ~config ~storage:(St.create ~name:"wal") ~n init in
    let hs = Array.init clients (fun pid -> D.handle t ~pid) in
    let setup_s = Obs.since t0 in
    let checkers = Array.init clients (fun _ -> Gen.Vcheck.create ~m ~targets) in
    let final_seq = Array.make clients 0 in
    let client pid =
      let h = hs.(pid) and st = streams.(pid) and ck = checkers.(pid) in
      let idxs = Array.make r 0 and seq = ref 0 in
      fun pos ->
        let op = st.(wrap_pos pos) in
        let x = Gen.payload op in
        if Gen.kind op = Gen.k_update then begin
          incr seq;
          let v = Gen.encode ~m ~writers:clients ~w:pid ~seq:!seq x in
          if tracing then traced_update h x v else D.update h x v;
          final_seq.(pid) <- !seq;
          Gen.k_update
        end
        else begin
          window ~m ~base:x idxs;
          Gen.Vcheck.scan ck idxs (D.scan h idxs);
          Gen.k_scan
        end
    in
    let check () =
      Gen.Vcheck.no_future checkers ~final_seq;
      let all = Array.init m Fun.id in
      let live = D.scan (D.handle t ~pid:clients) all in
      let back = D.recover ~config (D.storage t) ~n init in
      let recovered = D.scan (D.handle back ~pid:clients) all in
      Array.iteri
        (fun i v ->
          if recovered.(i) <> v then
            Gen.fail "recovery lost component %d: live %d, recovered %d" i v
              recovered.(i))
        live;
      Printf.sprintf
        "recover(device) = final full scan over %d components (%d commits, %d checkpoints, %d WAL bytes)"
        m
        (Array.fold_left ( + ) 0 final_seq)
        (D.generation t)
        (St.size (D.storage t))
    in
    { setup_s; client; check; teardown = ignore }
end

module Durable_plain =
  Durable_write (Mem.Atomic) (Mc_fig3) (Persist.Storage.Mc)

module Durable_traced =
  Durable_write (CM) (T_fig3) (Wrap.Trace_storage (Persist.Storage.Mc))

let durable_write =
  {
    name = "durable-write";
    clients = Durable_plain.clients;
    window_s = 0.5;
    stack = "Durable.Make (Mem.Atomic) (Mc_fig3) (Storage.Mc), write-ahead, sync per commit, checkpoint every 4096";
    prepare =
      (fun ~seed ->
        let streams =
          Gen.with_targets
            (Array.init Durable_plain.clients (fun pid ->
                 Gen.mixed ~seed ~salt:2 ~pid ~m:Durable_plain.m ~update_pct:90))
        in
        function
        | Plain -> Durable_plain.build ~tracing:false streams
        | Traced -> Durable_traced.build ~tracing:true streams
        | Swapped | Lww -> invalid_arg "durable-write: no such variant");
  }

(* ---- txn-transfer ---- *)

module Txn_transfer (M : Mem.S) (S : Snapshot.S) (A : Active_set.S) = struct
  module T = Txn.Make (M) (S) (A)

  let accounts = 64
  let balance = 1000
  let r = 8
  let clients = 2
  let audit_every = 1024 (* stream positions per full-width audit *)

  let total = accounts * balance

  let sum vs = Array.fold_left ( + ) 0 vs

  (* A read-write op names [a], [b] and an amount; a read-only op names
     [r] accounts, 6 bits each. *)
  let stream ~seed ~pid =
    let z = Gen.zipf ~n:accounts in
    let s =
      Gen.stream ~seed ~salt:3 ~pid (fun rng ->
          if Random.State.int rng 100 < 10 then begin
            let a = Gen.sample z rng in
            let b = Gen.sample z rng in
            let b = if b = a then (a + 1) mod accounts else b in
            let amt = 1 + Random.State.int rng 15 in
            Gen.pack ~kind:Gen.k_update ((((amt lsl 6) lor a) lsl 6) lor b)
          end
          else begin
            let p = ref 0 in
            for _ = 1 to r do
              p := (!p lsl 6) lor Gen.sample z rng
            done;
            Gen.pack ~kind:Gen.k_scan !p
          end)
    in
    for i = 0 to Array.length s - 1 do
      if i mod audit_every = audit_every - 1 then s.(i) <- Gen.pack ~kind:Gen.k_audit 0
    done;
    s

  let audit h =
    let x = T.begin_ h in
    let vs = T.read_many x (Array.init accounts Fun.id) in
    ignore (T.commit x);
    if sum vs <> total then
      Gen.fail "audit: accounts sum to %d, expected %d" (sum vs) total

  let build ~tracing ~mode streams =
    let n = clients + 1 (* pid [clients] takes the final audit *) in
    let init = Array.make accounts balance in
    let t0 = Obs.now () in
    let t = T.create ~mode ~n init in
    let hs = Array.init clients (fun pid -> T.handle t ~pid) in
    let setup_s = Obs.since t0 in
    let client pid =
      let h = hs.(pid) and st = streams.(pid) and idxs = Array.make r 0 in
      let s = Obs.slot () in
      (* one attempt of a transfer; [true] when it committed *)
      let attempt a b amt =
        if tracing then Obs.enter s;
        let x = T.begin_ h in
        let va = T.read x a in
        let vb = T.read x b in
        T.write x a (va - amt);
        T.write x b (vb + amt);
        if tracing then Obs.enter s;
        let res = T.commit x in
        if tracing then begin
          ignore (Obs.leave s Obs.k_txn_commit);
          ignore (Obs.leave s Obs.k_txn_rw);
          Obs.bump s
            (match res with
            | Ok _ -> Obs.txn_commits
            | Error (Txn.Conflict _) -> Obs.txn_conflicts
            | Error Txn.Busy -> Obs.txn_busy)
        end;
        Result.is_ok res
      in
      fun pos ->
        let op = st.(wrap_pos pos) in
        let p = Gen.payload op in
        match Gen.kind op with
        | k when k = Gen.k_update ->
          let a = (p lsr 6) land 63 and b = p land 63 and amt = p lsr 12 in
          while not (attempt a b amt) do
            ()
          done;
          k
        | k when k = Gen.k_scan ->
          for j = 0 to r - 1 do
            idxs.(j) <- (p lsr (6 * j)) land 63
          done;
          if tracing then Obs.enter s;
          let x = T.begin_ h in
          ignore (T.read_many x idxs);
          ignore (T.commit x);
          if tracing then ignore (Obs.leave s Obs.k_txn_ro);
          k
        | k ->
          audit h;
          k
    in
    let check () =
      audit (T.handle t ~pid:clients);
      Printf.sprintf "the %d accounts still sum to %d at the end and in every audit" accounts total
    in
    { setup_s; client; check; teardown = ignore }
end

module Txn_plain = Txn_transfer (Mem.Atomic) (Mc_fig3) (Mc_aset_fai)
module Txn_traced = Txn_transfer (CM) (T_fig3) (T_aset)

let txn_transfer =
  {
    name = "txn-transfer";
    clients = Txn_plain.clients;
    window_s = 0.5;
    stack = "Txn.Make (Mem.Atomic) (Mc_fig3) (Mc_aset_fai), first-committer-wins";
    prepare =
      (fun ~seed ->
        let streams =
          Array.init Txn_plain.clients (fun pid -> Txn_plain.stream ~seed ~pid)
        in
        function
        | Plain -> Txn_plain.build ~tracing:false ~mode:Txn.Fcw streams
        | Traced -> Txn_traced.build ~tracing:true ~mode:Txn.Fcw streams
        | Lww -> Txn_plain.build ~tracing:false ~mode:Txn.Lww streams
        | Swapped -> invalid_arg "txn-transfer has no Swapped variant");
  }

(* ---- replicated ---- *)

module Replicated (S : Snapshot.S) = struct
  let m = 1024
  let r = 16
  let clients = 1
  let replicas = 3

  let build (streams, targets) =
    let init = Array.init m Gen.initial in
    let t0 = Obs.now () in
    (* node-id head-room for the domain taking the final read-back *)
    let cluster = Net.Abd.mc_cluster ~clients:(clients + 2) ~replicas () in
    let rdoms =
      List.init replicas (fun i ->
          Driver.spawn (Net.Abd.mc_replica_body cluster ~index:i))
    in
    let t = S.create ~n:(clients + 1) init in
    let hs = Array.init clients (fun pid -> S.handle t ~pid) in
    let setup_s = Obs.since t0 in
    let checkers = Array.init clients (fun _ -> Gen.Vcheck.create ~m ~targets) in
    let final_seq = Array.make clients 0 in
    (* the client's last acknowledged value per component; [uncertain]
       marks a component whose last update raised [Unavailable] *)
    let acked = Array.copy init and uncertain = Array.make m false in
    let client pid =
      let h = hs.(pid) and st = streams.(pid) and ck = checkers.(pid) in
      let idxs = Array.make r 0 and seq = ref 0 in
      fun pos ->
        let op = st.(wrap_pos pos) in
        let x = Gen.payload op in
        if Gen.kind op = Gen.k_update then begin
          incr seq;
          let v = Gen.encode ~m ~writers:clients ~w:pid ~seq:!seq x in
          final_seq.(pid) <- !seq;
          match S.update h x v with
          | () ->
            acked.(x) <- v;
            uncertain.(x) <- false;
            Gen.k_update
          | exception Net.Unavailable _ ->
            uncertain.(x) <- true;
            Gen.k_update lor Driver.failed
        end
        else begin
          window ~m ~base:x idxs;
          match S.scan h idxs with
          | vs ->
            Gen.Vcheck.scan ck idxs vs;
            Gen.k_scan
          | exception Net.Unavailable _ -> Gen.k_scan lor Driver.failed
        end
    in
    let check () =
      Gen.Vcheck.no_future checkers ~final_seq;
      (* a fresh domain: client node ids are claimed per domain *)
      let back =
        Domain.join
          (Driver.spawn (fun () -> S.scan (S.handle t ~pid:clients) (Array.init m Fun.id)))
      in
      Array.iteri
        (fun i v ->
          if (not uncertain.(i)) && back.(i) <> v then
            Gen.fail "read-back of component %d is %d, last acknowledged write %d" i
              back.(i) v)
        acked;
      Printf.sprintf "final read-back of %d components = the client's last acknowledged writes" m
    in
    let teardown () =
      Net.Abd.mc_stop cluster;
      List.iter Domain.join rdoms
    in
    { setup_s; client; check; teardown }
end

module QM = Wrap.Quorum_mem (Net.Abd.Mc_mem)

module Repl_plain = Replicated (Mc_net_fig3)

module Repl_traced =
  Replicated (Wrap.Trace_snap (Snapshot.Fig3 (QM) (Wrap.Trace_aset (Active_set.Fai_cas (QM)))))

let replicated =
  {
    name = "replicated";
    clients = Repl_plain.clients;
    window_s = 1.25;
    stack = "Mc_net_fig3: fig3 over Net_abd.Mc_mem, 3 replica domains, no faults";
    prepare =
      (fun ~seed ->
        let streams =
          Gen.with_targets
            (Array.init Repl_plain.clients (fun pid ->
                 Gen.mixed ~seed ~salt:4 ~pid ~m:Repl_plain.m ~update_pct:50))
        in
        function
        | Plain -> Repl_plain.build streams
        | Traced -> Repl_traced.build streams
        | Swapped | Lww -> invalid_arg "replicated: no such variant");
  }

let all = [ range_read; durable_write; txn_transfer; replicated ]
