(** An active set as an f-array, per Section 5 of the paper: "the function
    f can also be specified so that an f-array provides an active set
    algorithm".  Leaves hold membership marks; [f] is sorted-set union, so
    the root {e is} the member list and getSet costs one step — at the
    price of O(log n) LL/SC operations per join/leave on objects that grow
    to the full member list at the root.  The mirror image of Figure 2's
    trade-off (O(1) join/leave, amortized-O(C) getSet), measured in
    experiment E7/E2 terms by the active set test suites. *)

module Make (M : Psnap_mem.Mem_intf.S) : Psnap_activeset.Activeset_intf.S =
struct
  module F = Farray.Make (M)

  type t = (int option, int list) F.t

  type handle = {
    t : t;
    pid : int;
    mutable joined : bool;
        [@psnap.local_state
          "single-owner handle flag guarding join/leave alternation; never \
           read by another process"]
  }

  let name = "farray-aset"

  let rec merge (a : int list) b =
    match (a, b) with
    | [], rest | rest, [] -> rest
    | x :: xs, y :: ys ->
      if x < y then x :: merge xs b
      else if y < x then y :: merge a ys
      else x :: merge xs ys

  let create ~n () =
    F.create ~name:"aset" ~pad:None
      ~of_leaf:(function Some p -> [ p ] | None -> [])
      ~combine:merge
      (Array.make (max n 1) None)

  let handle t ~pid = { t; pid; joined = false }

  let join h =
    assert (not h.joined);
    h.joined <- true;
    F.update h.t h.pid (Some h.pid)

  let leave h =
    assert h.joined;
    h.joined <- false;
    F.update h.t h.pid None

  let get_set t = F.read_root t
end
