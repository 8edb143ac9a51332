(** The embedded-scan engine shared by all three snapshot algorithms.

    An embedded scan repeatedly {e collects} (reads) the registers of the
    requested components until either

    {ol
    {- {b condition (1)}: two consecutive collects return identical tag
       vectors — the values were simultaneously present, and the scan
       linearizes between the two collects; or}
    {- {b condition (2)}: enough distinct values have been observed to prove
       some update's embedded view was produced entirely within this scan's
       interval, so that view can be {e borrowed} as the result.}}

    The two algorithms differ only in the borrowing rule:

    - {!Make.scan_per_process} (Figure 1, registers): borrow once a process
      has been {e observed to change} values twice ("three different values
      written by the same process", counting the per-location baseline);
      among those take the one with the highest counter.  Guaranteed within
      [2·Cu + 1] collects.
    - {!Make.scan_per_location} (Figure 3, compare&swap): borrow once three
      distinct values have been seen in the same location; take the third
      value seen there.  Guaranteed within [2r + 1] collects — independent
      of contention, which is what makes Figure 3's scans local.  The rule
      is sound only because updates install values with CAS: the third
      value's updater must have read the second value, hence started after
      it, hence after this scan's announcement.

    The functor is parametric in the view representation {!View_repr.S}, so
    the small-registers variants (remarks after Theorems 1 and 3) share
    this code: a condition-(1) result is {!Fresh} (values read directly, no
    publishing cost yet); a condition-(2) result is {!Borrowed} (a pointer
    to the helping update's published view). *)

module Int_tbl = Hashtbl.Make (Int)

module Make (M : Psnap_mem.Mem_intf.S) (V : View_repr.S) = struct
  type 'a cell = { v : 'a; view : 'a V.t; tag : Tag.t }

  let init_cell v = { v; view = V.empty; tag = Tag.Init }

  type 'a result =
    | Fresh of int array * 'a array  (** sorted indices and their values *)
    | Borrowed of 'a V.t

  type stats = { collects : int; borrowed : bool }

  (** Publishing a result as a view an update can write next to its value:
      free for [Borrowed] (pointer reuse), pays [V.publish] for [Fresh]. *)
  let to_view = function
    | Fresh (idxs, vals) -> V.publish ~idxs ~vals
    | Borrowed view -> view

  (* Position of [i] in the strictly increasing [sorted], or -1. *)
  let[@psnap.local_state
       "binary-search bounds over an already-read (immutable) result; \
        purely local scratch"] find_pos (sorted : int array) (i : int) =
    let lo = ref 0 and hi = ref (Array.length sorted - 1) and pos = ref (-1) in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let x = sorted.(mid) in
      if x = i then begin
        pos := mid;
        lo := !hi + 1
      end
      else if x < i then lo := mid + 1
      else hi := mid - 1
    done;
    !pos

  let value_at sorted vals i =
    let p = find_pos sorted i in
    if p < 0 then invalid_arg "Collect.extract: component not scanned";
    vals.(p)

  (** [extract result idxs]: the values of [idxs] (any order, duplicates
      allowed).  Local for [Fresh]; pays [V.find_exn] per component for
      [Borrowed]. *)
  let extract result idxs =
    match result with
    | Fresh (sorted, vals) ->
      let n = Array.length idxs in
      if n = 0 then [||]
      else
        let[@psnap.local_state
             "the result vector under construction, returned to the \
              caller"] out =
          Array.make n (value_at sorted vals idxs.(0))
        in
        for k = 1 to n - 1 do
          out.(k) <- value_at sorted vals idxs.(k)
        done;
        out
    | Borrowed view -> Array.map (V.find_exn view) idxs

  let check_idxs (idxs : int array) =
    for k = 1 to Array.length idxs - 1 do
      if idxs.(k - 1) >= idxs.(k) then
        invalid_arg "Collect: indices must be strictly increasing"
    done

  (* One collect, from position [k0] on: read each register of [idxs] into
     [buf], in order. *)
  let[@psnap.local_state
       "fills one of the scan's two private collect buffers"] read_into regs
      idxs buf k0 =
    for k = k0 to Array.length idxs - 1 do
      buf.(k) <- M.read regs.(idxs.(k))
    done

  (* The borrowing rule over a completed collect, in index order: the
     first view it asks to borrow, if any. *)
  let rec first_borrow state note buf k =
    if k >= Array.length buf then None
    else
      match note state k buf.(k) with
      | None -> first_borrow state note buf (k + 1)
      | borrow -> borrow

  (* Condition (1), from position [k] on: two consecutive collects with
     identical tag vectors. *)
  let rec same_from c1 c2 k =
    k >= Array.length c1
    || (Tag.equal c1.(k).tag c2.(k).tag && same_from c1 c2 (k + 1))

  (* The double-collect loop after the first collect: [prev] holds
     collect number [collects - 1]; [cur] is overwritten by collect number
     [collects], and the two buffers swap roles on every retry. *)
  let[@psnap.bounded
       "terminates by condition (1) or (2): within 2·Cu+1 collects for \
        scan_per_process (Theorem 1), 2r+1 for scan_per_location \
        (Theorem 3)"] rec settle regs idxs state note prev cur collects =
    read_into regs idxs cur 0;
    match first_borrow state note cur 0 with
    | Some view -> (Borrowed view, { collects; borrowed = true })
    | None ->
      if same_from prev cur 0 then
        let vals = Array.map (fun c -> c.v) cur in
        (Fresh (idxs, vals), { collects; borrowed = false })
      else settle regs idxs state note cur prev (collects + 1)

  (* Generic double-collect scan: [note state k cell] inspects every
     freshly read cell, in index order, and returns a view to trigger
     condition (2).  A [Fresh] result shares [idxs], which the callers
     never mutate afterwards (a scan's private sorted copy, an updater's
     private union of announcements, or a fixed all-components array). *)
  let scan_loop regs idxs state note =
    check_idxs idxs;
    let r = Array.length idxs in
    if r = 0 then (Fresh ([||], [||]), { collects = 0; borrowed = false })
    else
      let c0 = M.read regs.(idxs.(0)) in
      let first = Array.make r c0 in
      read_into regs idxs first 1;
      match first_borrow state note first 0 with
      | Some view -> (Borrowed view, { collects = 1; borrowed = true })
      | None -> settle regs idxs state note first (Array.make r c0) 2

  let rec seen_seq (seq : int) = function
    | [] -> false
    | (s, _) :: rest -> s = seq || seen_seq seq rest

  (* [baseline.(k)]: the last tag seen in location [k]; [fresh]: per
     updating process, the (seq, view) pairs it was observed to write
     during this scan. *)
  let[@psnap.local_state
       "scan-private baseline and change table, created per scan by \
        scan_per_process"] note_process (baseline, fresh) k (c : _ cell) =
    match baseline.(k) with
    | Some t when Tag.equal t c.tag -> None
    | before -> (
      baseline.(k) <- Some c.tag;
      match (before, c.tag) with
      | None, _ -> None (* first collect: baseline only *)
      | Some _, Tag.Init ->
        assert false (* registers never revert to their initial value *)
      | Some _, Tag.W { pid; seq } -> (
        let l = Option.value (Int_tbl.find_opt fresh pid) ~default:[] in
        if seen_seq seq l then None
        else
          let l = (seq, c.view) :: l in
          Int_tbl.replace fresh pid l;
          match l with
          | (s1, v1) :: (s2, v2) :: _ -> Some (if s1 > s2 then v1 else v2)
          | _ -> None))

  (** Figure 1 / Afek et al. termination: "three different values written by
      the same process have been seen (in any locations)".

      The three values are a per-location baseline plus two {e observed
      changes}: a value counts as evidence only when a location is seen to
      {e change} to it between two of our reads, which proves it was written
      during this scan.  (Three distinct same-process values merely sitting
      in different registers of a single collect prove nothing — they may
      all be arbitrarily old, and borrowing on them is unsound; a
      single-process execution already exhibits the bug.)  When a process is
      observed to change a value twice, the later write's update started
      after the earlier observed write — i.e. within this scan — so its view
      (the one "with the highest counter") is safe to borrow. *)
  let scan_per_process (type a) (regs : a cell M.ref_ array) idxs :
      a result * stats =
    let[@psnap.local_state
         "scan-private memory of the last tag seen per location"] baseline =
      Array.make (Array.length idxs) None
    in
    let[@psnap.local_state
         "scan-private table of observed changes per updating process"] fresh
        : (int * a V.t) list Int_tbl.t =
      Int_tbl.create 16
    in
    scan_loop regs idxs (baseline, fresh) note_process

  let rec has_tag t = function
    | [] -> false
    | u :: l -> Tag.equal t u || has_tag t l

  (* [seen.(k)]: the distinct tags seen so far in location [k], at most
     two — the third distinct one is borrowed on sight. *)
  let[@psnap.local_state
       "scan-private record of the distinct tags seen per location"] note_location
      seen k (c : _ cell) =
    let l = seen.(k) in
    if has_tag c.tag l then None
    else
      match l with
      | [ _; _ ] -> Some c.view
      | _ ->
        seen.(k) <- c.tag :: l;
        None

  (** Figure 3 termination: three distinct values in the same location;
      borrow the view of the third value seen there. *)
  let scan_per_location regs idxs =
    let[@psnap.local_state
         "scan-private list of distinct tags seen per location"] seen =
      Array.make (Array.length idxs) []
    in
    scan_loop regs idxs seen note_location
end
