(** The embedded-scan engine shared by all three snapshot algorithms.

    An embedded scan repeatedly {e collects} (reads) the registers of the
    requested components until either

    {ol
    {- {b condition (1)}: two consecutive collects return identical tag
       vectors — the values were simultaneously present, and the scan
       linearizes between the two collects; or}
    {- {b condition (2)}: enough distinct values have been observed to
       prove some update's embedded view was produced entirely within this
       scan's interval, so that view can be {e borrowed} as the result.}}

    The two entry points differ only in the borrowing rule:
    {!Make.scan_per_process} is Figure 1's ("three different values
    written by the same process", within [2·Cu + 1] collects);
    {!Make.scan_per_location} is Figure 3's ("three distinct values in the
    same location", within [2r + 1] collects — independent of contention,
    which is what makes Figure 3's scans local).

    The functor is parametric in the view representation {!View_repr.S},
    so the small-registers variants (remarks after Theorems 1 and 3) share
    this code. *)

module Make (M : Psnap_mem.Mem_intf.S) (V : View_repr.S) : sig
  (** What a snapshot register holds: the value, the view published with
      it (empty until the writer has one), and the tag that makes values
      distinguishable across writes.  Concrete on purpose — the algorithms
      build and pattern-match these records directly. *)
  type 'a cell = { v : 'a; view : 'a V.t; tag : Tag.t }

  (** A cell holding the paper's initial value: empty view, {!Tag.Init}. *)
  val init_cell : 'a -> 'a cell

  type 'a result =
    | Fresh of int array * 'a array
        (** condition (1): sorted indices and their values, read directly *)
    | Borrowed of 'a V.t
        (** condition (2): the helping update's published view *)

  type stats = { collects : int; borrowed : bool }

  (** Publish a result as a view an update can write next to its value:
      free for [Borrowed] (pointer reuse), pays [V.publish] for [Fresh]. *)
  val to_view : 'a result -> 'a V.t

  (** [extract result idxs]: the values of [idxs] (any order, duplicates
      allowed).  Local for [Fresh]; pays [V.find_exn] per component for
      [Borrowed].
      @raise Invalid_argument if a component was not scanned. *)
  val extract : 'a result -> int array -> 'a array

  (** Figure 1 / Afek et al. termination rule.  [idxs] strictly
      increasing; a [Fresh] result shares it, so the caller must not
      mutate it afterwards.
      @raise Invalid_argument otherwise. *)
  val scan_per_process : 'a cell M.ref_ array -> int array -> 'a result * stats

  (** Figure 3 termination rule: borrow the view of the third distinct
      value seen in one location.  Sound only when updates install with
      CAS.  [idxs] strictly increasing and, as above, not mutated
      afterwards.
      @raise Invalid_argument otherwise. *)
  val scan_per_location :
    'a cell M.ref_ array -> int array -> 'a result * stats
end
