open Psnap

type partition = [ `Round_robin | `Range ]

let layered = [ "sharded"; "sharded-relaxed"; "resilient"; "durable"; "txn" ]

let choose bases name =
  match List.assoc_opt name bases with
  | Some m -> m
  | None ->
    Scenario.usage "unknown --impl %S (choose from: %s)" name
      (String.concat ", " (List.map fst bases @ layered))

module type GEOMETRY = sig
  val shards : int

  val partition : partition

  val max_rounds : int
end

module Supervision (G : GEOMETRY) = struct
  include G

  let backoff_base = 2
  let backoff_max = 16
  let breaker_threshold = 3
  let breaker_cooldown = 4
  let probe_successes = 2
  let heal_quiesce = 64
end

module Make (M : Mem.S) = struct
  module Aset = Active_set.Fai_cas (M)
  module Bounded = Active_set.Bounded (M)
  module Fig3 = Snapshot.Fig3 (M) (Aset)

  let bases : (string * (module Snapshot.S)) list =
    [
      ("afek", (module Snapshot.Afek (M)));
      ("fig1", (module Snapshot.Fig1 (M) (Bounded)));
      ("fig1-adaptive", (module Snapshot.Fig1 (M) (Active_set.Splitter_tree (M))));
      ("fig1-small", (module Snapshot.Fig1_small (M) (Bounded)));
      ("fig3", (module Fig3));
      ( "fig3-small",
        (module Snapshot.Fig3_small (M) (Active_set.Fai_cas_small (M))) );
      ("fig3-bounded-aset", (module Snapshot.Fig3 (M) (Bounded)));
      ("farray", (module Snapshot.Farray (M)));
      ("nonblocking", (module Snapshot.Nonblocking (M)));
    ]

  let sharded ~shards ~partition ~mode : (module Snapshot.S) =
    (module Runtime.Sharded.Make (M) (Fig3)
              (struct
                let shards = shards
                let partition = partition
                let mode = mode
              end))

  module Resilient (Primary : Snapshot.S) (Heal : Snapshot.S) (G : GEOMETRY) =
    Runtime.Resilient.Make (M) (Primary) (Heal) (Supervision (G))

  module Durable (St : Persist.Storage.S) = Persist.Durable.Make (M) (Fig3) (St)

  module Txn = Txn.Make (M) (Fig3) (Aset)

  module Txn_snap = struct
    type 'a t = 'a Txn.t

    type 'a handle = 'a Txn.handle

    let name = Txn.name

    let create ~n init = Txn.create ~n init

    let handle t ~pid = Txn.handle t ~pid

    let update h i v =
      let rec go () =
        let x = Txn.begin_ h in
        ignore (Txn.read x i);
        Txn.write x i v;
        match Txn.commit x with Ok _ -> () | Error _ -> go ()
      in
      go ()

    let scan h idxs =
      let x = Txn.begin_ h in
      let vs = Txn.read_many x idxs in
      ignore (Txn.commit x);
      vs

    let last_scan_collects _ = 1
  end
end
