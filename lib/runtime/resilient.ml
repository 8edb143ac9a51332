(* Resilient serving: a supervision layer over sharded partial snapshots
   that makes every operation bounded and honest about degradation.

   See resilient.mli for the API contract and docs/MODEL.md §11 for the
   degradation semantics.  The construction mirrors Sharded's geometry
   (per-shard snapshot instances, epoch-validated cross-shard rounds) and
   adds three mechanisms on top:

   - scans carry a round budget with exponential backoff between failed
     validation rounds; on exhaustion they return [Degraded] instead of
     retrying forever;
   - each shard has a circuit breaker (closed / open / half-open) fed by
     hardened-register fault counters, validation-failure attribution and
     stuck-epoch detection; open shards are read once, unvalidated, and
     flagged;
   - a wounded shard is healed: sealed against updates, drained to
     quiescence, copied by one final sub-scan, rebuilt on the replacement
     implementation [R] (hardened memory), and swapped in by CAS.

   Values are stored as [{ epoch; nonce; v }] entries.  Epochs come from a
   per-shard, per-generation fetch&increment cell and give scans their
   ABA-free validation (as in Sharded); the nonce is drawn per handle and
   makes tags unique even when the epoch cell is stuck (a stuck fetch&add
   returns the same epoch twice — the nonce keeps the two updates
   distinguishable, so validation never silently accepts a changed
   component, and the non-monotone draw is itself the detector that
   triggers healing). *)

module Metrics = Psnap_sched.Metrics

module type CONFIG = sig
  val shards : int

  val partition : [ `Round_robin | `Range ]

  val max_rounds : int

  val backoff_base : int

  val backoff_max : int

  val breaker_threshold : int

  val breaker_cooldown : int

  val probe_successes : int

  val heal_quiesce : int
end

module Make
    (M : Psnap_mem.Mem_intf.S)
    (S : Psnap_snapshot.Snapshot_intf.S)
    (R : Psnap_snapshot.Snapshot_intf.S)
    (C : CONFIG) =
struct
  let name =
    Printf.sprintf "resilient-%dx%s%s" C.shards S.name
      (match C.partition with `Round_robin -> "" | `Range -> "/range")

  (** What a shard stores per component: the value and its
      [(epoch, nonce)] tag. *)
  type 'a entry = { epoch : int; nonce : int; v : 'a }

  let same_tag a b = a.epoch = b.epoch && a.nonce = b.nonce

  type 'a impl =
    | Prim of 'a entry S.t  (** original shard instance *)
    | Healed of 'a entry R.t  (** post-heal replacement instance *)

  type 'a shard_state = {
    gen : int;  (** generation: bumped by every completed heal *)
    impl : 'a impl;
    epoch_cell : int M.ref_;  (** per-generation epoch source; a heal installs
                             a fresh cell, so a stuck one is left behind *)
  }

  (* The shard pointer.  Both constructors carry the same payload; the
     Sealed state is the heal protocol's write barrier: an updater that
     reads [Sealed] backs off (dropping its inflight token) and helps
     complete the heal.  Every transition installs a freshly allocated
     state record, so pointer CASes never suffer ABA. *)
  type 'a cell_state = Active of 'a shard_state | Sealed of 'a shard_state

  type breaker_state = Closed | Open | Half_open

  (* Supervisor-local bookkeeping (no shared-memory steps): breaker
     state machines are observability/routing hints, not part of the
     linearizability argument — scans of an open shard are still each an
     atomic fragment; the breaker only decides whether cross-shard
     validation includes the shard. *)
  type breaker = {
    mutable bstate : breaker_state;
    mutable strikes : int;  (** consecutive fault evidence while closed *)
    mutable cooldown : int;  (** touches left before open -> half-open *)
    mutable probes : int;  (** consecutive validated probes half-open *)
  }

  type 'a t = {
    ptrs : 'a cell_state M.ref_ array;
    inflight : int M.ref_ array;  (** updates inside their pointer-read ->
                                      install window, per shard *)
    scratch : int M.ref_;  (** backoff target: reads cost steps/yield *)
    breakers : breaker array;
    handles_made : int array;
        (** per pid: handles created so far, numbering each handle's
            nonce range (a restarted process gets a fresh one) *)
    n : int;
    place : Placement.t;
  }

  (* A process's handle on one shard instance, of either implementation. *)
  type 'a shard_handle = {
    scan : int array -> 'a entry array;
    update : int -> 'a entry -> unit;
    collects : unit -> int;  (** collects of this handle's last scan *)
  }

  type 'a handle = {
    t : 'a t;
    pid : int;
    cache : (int * 'a shard_handle) option array;
        (** per shard: handle for a given generation, rebuilt lazily after
            a heal swaps the instance *)
    last_epoch : int array;  (** newest epoch drawn per shard (this handle) *)
    last_gen : int array;
    stuck_reported : bool array;  (** one heal trigger per (shard, handle) *)
    mutable nonce_seq : int;  (** see [next_nonce] *)
    mutable tag_epoch : int;  (** epoch of this handle's latest update *)
    mutable collects : int;
    mutable rounds : int;
    mutable degraded : bool;
  }

  type 'a outcome =
    | Atomic of 'a array
    | Degraded of {
        values : 'a array;
        suspects : int list;
        failed : (int * int) list;
        rounds : int;
      }

  let create ~n init =
    let place =
      Placement.create ~what:"Resilient.create" ~partition:C.partition
        ~shards:C.shards (Array.length init)
    in
    if C.max_rounds < 2 then invalid_arg "Resilient.create: max_rounds < 2";
    if C.heal_quiesce < 1 then invalid_arg "Resilient.create: heal_quiesce < 1";
    let nshards = place.Placement.nshards in
    let ptrs =
      Array.mapi
        (fun s vals ->
          let sub = S.create ~n vals in
          (* drawn epochs start at 1: never collide with the initial 0 *)
          let epoch_cell =
            M.make ~name:(Printf.sprintf "rshard%d.epoch" s) 1
          in
          M.make
            ~name:(Printf.sprintf "rshard%d.ptr" s)
            (Active { gen = 1; impl = Prim sub; epoch_cell }))
        (Placement.split place init (fun v -> { epoch = 0; nonce = 0; v }))
    in
    let inflight =
      Array.init nshards (fun s ->
          M.make ~name:(Printf.sprintf "rshard%d.inflight" s) 0)
    in
    {
      ptrs;
      inflight;
      scratch = M.make ~name:"resilient.backoff" 0;
      breakers =
        Array.init nshards (fun _ ->
            { bstate = Closed; strikes = 0; cooldown = 0; probes = 0 });
      handles_made = Array.make n 0;
      n;
      place;
    }

  let handle t ~pid =
    if pid < 0 || pid >= t.n then invalid_arg "Resilient.handle: pid";
    let nshards = t.place.Placement.nshards in
    let inc = t.handles_made.(pid) in
    t.handles_made.(pid) <- inc + 1;
    {
      t;
      pid;
      cache = Array.make nshards None;
      last_epoch = Array.make nshards (-1);
      last_gen = Array.make nshards 0;
      stuck_reported = Array.make nshards false;
      nonce_seq = inc lsl 32;
      tag_epoch = 0;
      collects = 0;
      rounds = 0;
      degraded = false;
    }

  (* ---- circuit breakers ---- *)

  let strike t s =
    let b = t.breakers.(s) in
    match b.bstate with
    | Open -> ()
    | Half_open ->
      (* a failed probe reopens immediately *)
      b.bstate <- Open;
      b.cooldown <- C.breaker_cooldown;
      b.probes <- 0;
      Metrics.note_breaker `Open
    | Closed ->
      b.strikes <- b.strikes + 1;
      if b.strikes >= C.breaker_threshold then begin
        b.bstate <- Open;
        b.cooldown <- C.breaker_cooldown;
        Metrics.note_breaker `Open
      end

  (* A fully validated scan that included shard [s]: clears consecutive
     strikes; counts as a successful probe when half-open. *)
  let breaker_ok t s =
    let b = t.breakers.(s) in
    match b.bstate with
    | Closed -> b.strikes <- 0
    | Half_open ->
      b.probes <- b.probes + 1;
      if b.probes >= C.probe_successes then begin
        b.bstate <- Closed;
        b.strikes <- 0;
        b.probes <- 0;
        Metrics.note_breaker `Close
      end
    | Open -> ()

  (* Called once per scan per touched shard: ticks the open-state cooldown
     and says whether THIS scan must skip validating the shard. *)
  let breaker_skips t s =
    let b = t.breakers.(s) in
    match b.bstate with
    | Closed | Half_open -> false
    | Open ->
      if b.cooldown > 0 then b.cooldown <- b.cooldown - 1;
      if b.cooldown <= 0 then begin
        (* next scan probes it half-open; this one still skips *)
        b.bstate <- Half_open;
        b.probes <- 0;
        Metrics.note_breaker `Half_open
      end;
      true

  let reclose t s =
    let b = t.breakers.(s) in
    if b.bstate <> Closed then Metrics.note_breaker `Close;
    b.bstate <- Closed;
    b.strikes <- 0;
    b.probes <- 0;
    b.cooldown <- 0

  (* ---- self-healing ---- *)

  (* Completes (or aborts) a heal whose shard pointer is Sealed.  Any
     process may help; all transitions race through CAS on the physically
     unique sealed state, so exactly one helper's outcome lands.

     Quiescence: every update holds an inflight token from before its
     pointer read until after its install, so once the counter reads 0
     with the pointer Sealed, no update can ever land on the old instance
     again (a later updater sees Sealed and backs off).  The final
     sub-scan below therefore captures the shard's exact final state.  If
     the counter never drains within the budget — an updater crashed
     inside its window, or the system is overloaded — the heal is
     aborted and the old instance restored: honest failure over an
     unbounded wait. *)
  let complete_heal t ~pid s =
    match M.read t.ptrs.(s) with
    | Active _ -> ()
    | Sealed st as sealed ->
      let budget = ref C.heal_quiesce in
      let quiet = ref false in
      while (not !quiet) && !budget > 0 do
        decr budget;
        if M.read t.inflight.(s) = 0 then quiet := true
      done;
      if not !quiet then begin
        if M.cas t.ptrs.(s) ~expected:sealed ~desired:(Active st) then
          Metrics.note_heal `Aborted
      end
      else begin
        let idxs = Array.init (Placement.size t.place s) Fun.id in
        let rows =
          match st.impl with
          | Prim p -> S.scan (S.handle p ~pid) idxs
          | Healed r -> R.scan (R.handle r ~pid) idxs
        in
        let maxe = Array.fold_left (fun a x -> Int.max a x.epoch) 0 rows in
        let epoch_cell =
          M.make ~name:(Printf.sprintf "rshard%d.epoch" s) (maxe + 1)
        in
        let impl = Healed (R.create ~n:t.n rows) in
        let st' = Active { gen = st.gen + 1; impl; epoch_cell } in
        if M.cas t.ptrs.(s) ~expected:sealed ~desired:st' then begin
          reclose t s;
          Metrics.note_heal `Completed
        end
      end

  (* Seal shard [s] and drive the heal to completion (or abort).  Raced
     seals help whatever state they find. *)
  let request_heal t ~pid s =
    (match M.read t.ptrs.(s) with
    | Sealed _ -> ()
    | Active st as cur ->
      if M.cas t.ptrs.(s) ~expected:cur ~desired:(Sealed st) then
        Metrics.note_heal `Started);
    complete_heal t ~pid s

  (* Current Active state of a shard, helping any in-progress heal.
     Bounded in practice: complete_heal always leaves the pointer Active
     (swap or abort), and a re-seal needs a fresh fault trigger. *)
  let[@psnap.bounded
       "complete_heal leaves the pointer Active (swap or abort); re-seals \
        require a fresh fault trigger, charged to the fault budget"] rec
      active_state t ~pid s =
    match M.read t.ptrs.(s) with
    | Active st -> st
    | Sealed _ ->
      complete_heal t ~pid s;
      active_state t ~pid s

  (* ---- handles per (shard, generation) ---- *)

  let handle_for h s (st : 'a shard_state) =
    match h.cache.(s) with
    | Some (g, hd) when g = st.gen -> hd
    | _ ->
      let hd =
        match st.impl with
        | Prim p ->
          let x = S.handle p ~pid:h.pid in
          let collects () = S.last_scan_collects x in
          { scan = S.scan x; update = S.update x; collects }
        | Healed r ->
          let x = R.handle r ~pid:h.pid in
          let collects () = R.last_scan_collects x in
          { scan = R.scan x; update = R.update x; collects }
      in
      h.cache.(s) <- Some (st.gen, hd);
      hd

  (* ---- update ---- *)

  (* Tag nonces, unique per object by construction and drawn without any
     shared write: the [inc]-th handle of process [pid] issues
     [(inc * 2^32 + seq) * n + pid] for seq = 1, 2, ...  Initial entries
     carry nonce 0, which no update issues. *)
  let next_nonce h =
    h.nonce_seq <- h.nonce_seq + 1;
    (h.nonce_seq * h.t.n) + h.pid

  let[@psnap.bounded
       "retries only while the shard is Sealed; complete_heal unseals it \
        (swap or abort) before the retry"] rec update h i v =
    let t = h.t in
    Placement.check t.place ~err:"Resilient.update: index" i;
    let s = Placement.shard_of t.place i in
    ignore (M.fetch_and_add t.inflight.(s) 1);
    match M.read t.ptrs.(s) with
    | Sealed _ ->
      (* a heal is draining this shard: drop our token so it can reach
         quiescence, help finish, then retry on the new instance *)
      ignore (M.fetch_and_add t.inflight.(s) (-1));
      complete_heal t ~pid:h.pid s;
      update h i v
    | Active st ->
      let e = M.fetch_and_add st.epoch_cell 1 in
      (* Epoch draws are strictly increasing per generation unless the
         cell stopped applying adds (Stuck_cell).  The nonce keeps the
         update's tag unique regardless, so we install first — the object
         stays linearizable — and trigger healing after releasing our
         inflight token (healing waits for quiescence, which includes
         us). *)
      let stuck = st.gen = h.last_gen.(s) && e <= h.last_epoch.(s) in
      h.last_gen.(s) <- st.gen;
      h.last_epoch.(s) <- Int.max e h.last_epoch.(s);
      let x = { epoch = e; nonce = next_nonce h; v } in
      h.tag_epoch <- e;
      (handle_for h s st).update (Placement.slot_of t.place i) x;
      ignore (M.fetch_and_add t.inflight.(s) (-1));
      if stuck then begin
        Metrics.note_stuck_epoch ();
        strike t s;
        if not h.stuck_reported.(s) then begin
          h.stuck_reported.(s) <- true;
          request_heal t ~pid:h.pid s
        end
      end

  (* ---- scan ---- *)

  (* Deterministic bounded exponential backoff: [steps] reads of the
     scratch cell — each a scheduling point in the simulator (other
     processes run; the disagreeing update can finish) and a cheap spin on
     real atomics.  Jitter derives from (pid, attempt), so concurrent
     scanners de-synchronize without any randomness to replay. *)
  let backoff h attempt =
    if C.backoff_base > 0 then begin
      let d = Int.min C.backoff_max (C.backoff_base lsl Int.min attempt 16) in
      let d = Int.max 1 d in
      let steps = d + (((h.pid * 31) + (attempt * 17)) mod (d + 1)) in
      Metrics.note_backoff steps;
      for _ = 1 to steps do
        ignore (M.read h.t.scratch)
      done
    end

  (* One sub-scan of shard [s] through its current instance.  Hardened
     detections that surface during it are attributed to [s] — a heuristic
     (other processes run concurrently), but fault-saturated shards
     dominate the deltas they sit on. *)
  let sub_scan h s slots =
    let ev0 = Psnap_mem.Hardened.evidence () in
    let hd = handle_for h s (active_state h.t ~pid:h.pid s) in
    let rows = hd.scan slots in
    h.collects <- h.collects + hd.collects ();
    if Psnap_mem.Hardened.evidence () > ev0 then strike h.t s;
    rows

  (* One round: a sub-scan of every touched shard, in shard order. *)
  let round h g =
    h.rounds <- h.rounds + 1;
    Placement.map_touched g h sub_scan

  (* Components that failed validation, with the epoch last seen. *)
  let failed_of idxs (g : Placement.groups) prev cur dis =
    List.concat_map
      (fun k ->
        let pk = prev.(k) and ck = cur.(k) and pos = g.pos.(k) in
        let acc = ref [] in
        for p = Array.length pk - 1 downto 0 do
          if not (same_tag pk.(p) ck.(p)) then
            acc := (idxs.(pos.(p)), ck.(p).epoch) :: !acc
        done;
        !acc)
      dis

  (* A successful validation clears strikes (or counts as a probe) on
     every shard it covered. *)
  let validated h (g : Placement.groups) skip =
    for k = 0 to Array.length skip - 1 do
      if not skip.(k) then breaker_ok h.t g.touched.(k)
    done

  (* Atomic when no shard is suspect, else Degraded. *)
  let conclude h g idxs ~suspects ~failed rows =
    Metrics.note_scan_rounds h.rounds;
    let len = Array.length idxs in
    let values = Placement.scatter g ~len rows (fun x -> x.v) in
    match suspects with
    | [] -> Atomic values
    | _ ->
      h.degraded <- true;
      Metrics.note_degraded_scan ();
      Degraded { values; suspects; failed; rounds = h.rounds }

  (* Epoch-validated double collect over whole rounds, with a round
     budget: C.max_rounds rounds in total, then Degraded. *)
  let[@psnap.bounded
       "at most C.max_rounds rounds: every iteration increments h.rounds \
        and the budget check precedes the recursion"] rec settle h idxs g
      skip ~suspects prev =
    let cur = round h g in
    match Placement.disagreeing ~skip same_tag prev cur with
    | [] ->
      validated h g skip;
      conclude h g idxs ~suspects ~failed:[] cur
    | dis when h.rounds >= C.max_rounds ->
      let failing = List.map (fun k -> g.Placement.touched.(k)) dis in
      List.iter (fun s -> strike h.t s) failing;
      conclude h g idxs ~suspects:(suspects @ failing)
        ~failed:(failed_of idxs g prev cur dis) cur
    | _ ->
      backoff h (h.rounds - 1);
      settle h idxs g skip ~suspects cur

  let scan_outcome h idxs =
    h.collects <- 0;
    h.rounds <- 0;
    h.degraded <- false;
    if Array.length idxs = 0 then Atomic [||]
    else begin
      let g = Placement.group h.t.place ~err:"Resilient.scan: index" idxs in
      (* open circuits: their sub-scan is taken once, unvalidated; the
         result is a per-shard-atomic fragment and the scan is Degraded *)
      let nt = Array.length g.touched in
      let skip = Array.make nt false and suspects = ref [] in
      for k = nt - 1 downto 0 do
        if breaker_skips h.t g.touched.(k) then begin
          skip.(k) <- true;
          suspects := g.touched.(k) :: !suspects
        end
      done;
      let suspects = !suspects in
      if nt - List.length suspects >= 2 then
        settle h idxs g skip ~suspects (round h g)
      else begin
        (* 0 or 1 validated shards: a single round suffices — each
           sub-scan is linearizable on its own, so one validated shard
           needs no cross-round agreement (and its trivially successful
           validation still counts as a probe) while open shards never
           get one *)
        let cur = round h g in
        validated h g skip;
        conclude h g idxs ~suspects ~failed:[] cur
      end
    end

  let scan h idxs =
    match scan_outcome h idxs with
    | Atomic vs -> vs
    | Degraded { values; _ } -> values

  let last_scan_collects h = h.collects

  let last_scan_rounds h = h.rounds

  let last_scan_degraded h = h.degraded

  let last_tag h =
    if h.tag_epoch = 0 then (0, 0)
    else (h.tag_epoch, (h.nonce_seq * h.t.n) + h.pid)

  (* ---- introspection / administration ---- *)

  let nshards t = t.place.Placement.nshards

  let breaker_state t s = t.breakers.(s).bstate

  let force_open t s =
    let b = t.breakers.(s) in
    if b.bstate <> Open then Metrics.note_breaker `Open;
    b.bstate <- Open;
    (* effectively never half-opens on its own: for experiments that hold
       a circuit open for a whole run *)
    b.cooldown <- max_int

  let shard_gen t ~pid:_ s =
    match M.read t.ptrs.(s) with
    | Active st | Sealed st -> st.gen

  let heal = request_heal

  (* The plain Snapshot_intf face: Degraded scans return their fragment
     values like any other scan, flagged only through the metrics counters
     and [last_scan_degraded].  This is what the load generator and other
     S-generic harnesses drive; correctness harnesses that must tell the
     two outcomes apart use [scan_outcome] directly. *)
  module Snap = struct
    type nonrec 'a t = 'a t

    type nonrec 'a handle = 'a handle

    let name = name

    let create = create

    let handle = handle

    let update = update

    let scan = scan

    let last_scan_collects = last_scan_collects
  end
end
