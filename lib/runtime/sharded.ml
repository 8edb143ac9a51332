(* Sharded partial snapshot: partition m components across independent
   snapshot instances, with epoch-validated cross-shard scans.

   See sharded.mli for the atomicity argument and docs/MODEL.md §10 for
   why a separate per-shard epoch *cell* read around the sub-scans would
   be unsound (a writer suspended between its epoch bump and its data
   write masks itself) — the epoch here is installed *inside* the shard,
   atomically with the value, so the per-shard sub-scan reads data and
   version information in one linearizable operation. *)

module type CONFIG = sig
  val shards : int

  val partition : [ `Round_robin | `Range ]

  val mode : [ `Validated | `Relaxed ]
end

module Make
    (M : Psnap_mem.Mem_intf.S)
    (S : Psnap_snapshot.Snapshot_intf.S)
    (C : CONFIG) =
struct
  let relaxed = C.mode = `Relaxed

  let name =
    Printf.sprintf "sharded-%dx%s%s%s" C.shards S.name
      (match C.partition with `Round_robin -> "" | `Range -> "/range")
      (if relaxed then "/relaxed" else "")

  type 'a t = {
    sub : (int * 'a) S.t array;  (** per-shard instances storing
                                     (epoch, value) pairs *)
    epochs : int M.ref_ array;  (** per-shard epoch source: every update
                                    draws a fresh shard-unique epoch by
                                    fetch&increment *)
    place : Placement.t;
  }

  type 'a handle = {
    t : 'a t;
    hs : (int * 'a) S.handle array;
    mutable collects : int;
    mutable rounds : int;  (** validation rounds of the most recent scan *)
  }

  let create ~n init =
    let place =
      Placement.create ~what:"Sharded.create" ~partition:C.partition
        ~shards:C.shards (Array.length init)
    in
    let sub =
      Array.map (S.create ~n) (Placement.split place init (fun v -> (0, v)))
    in
    (* drawn epochs start at 1, so they never collide with the initial 0 *)
    let epochs =
      Array.init (Array.length sub) (fun s ->
          M.make ~name:(Printf.sprintf "shard%d.epoch" s) 1)
    in
    { sub; epochs; place }

  let handle t ~pid =
    {
      t;
      hs = Array.map (fun st -> S.handle st ~pid) t.sub;
      collects = 0;
      rounds = 0;
    }

  let update h i v =
    let p = h.t.place in
    Placement.check p ~err:"Sharded.update: index" i;
    let s = Placement.shard_of p i in
    let e = M.fetch_and_add h.t.epochs.(s) 1 in
    S.update h.hs.(s) (Placement.slot_of p i) (e, v)

  let sub_scan h s slots =
    let r = S.scan h.hs.(s) slots in
    h.collects <- h.collects + S.last_scan_collects h.hs.(s);
    r

  (* One round: a partial scan of every touched shard, in shard order.
     Each sub-scan is linearizable on its own; rounds execute
     sequentially. *)
  let round h g =
    h.rounds <- h.rounds + 1;
    Placement.map_touched g h sub_scan

  let same_epoch ((e : int), _) (e', _) = e = e'

  (* Sliding double collect over whole rounds: a retry costs one extra
     round, and only when some touched component really changed —
     lock-free, and never stuck behind a crashed updater (a crashed update
     either installed its epoch or never will; neither makes consecutive
     rounds disagree forever).  Epochs identify updates uniquely per
     shard, so equal epoch vectors across two consecutive rounds mean no
     touched component changed between them (no ABA). *)
  let rec settle h g ~skip prev =
    let cur = round h g in
    match Placement.disagreeing ~skip same_epoch prev cur with
    | [] -> cur
    | _ :: _ -> settle h g ~skip cur

  let scan h idxs =
    let len = Array.length idxs in
    h.collects <- 0;
    h.rounds <- 0;
    if len = 0 then [||]
    else begin
      let g = Placement.group h.t.place ~err:"Sharded.scan: index" idxs in
      let rows =
        if relaxed || Array.length g.touched = 1 then
          (* a single sub-scan is linearizable on its own: scans that stay
             inside one shard (the common case under range partitioning
             with window workloads) need no validation round *)
          round h g
        else
          let skip = Array.make (Array.length g.touched) false in
          settle h g ~skip (round h g)
      in
      Psnap_sched.Metrics.note_scan_rounds h.rounds;
      Placement.scatter g ~len rows snd
    end

  let last_scan_collects h = h.collects

  let last_scan_rounds h = h.rounds
end
