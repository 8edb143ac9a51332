(** Index arrays as scans take them.

    A scan accepts its component indices in any order, with duplicates,
    and works on the sorted, duplicate-free set: that is what it
    announces and what its collects read. *)

val sort_uniq : int array -> int array
(** [sort_uniq idxs] is a fresh array holding the distinct elements of
    [idxs] in strictly increasing order — the same elements as
    [List.sort_uniq compare] on the list of [idxs].  [idxs] itself is not
    modified, and the result never aliases it, so a caller may announce
    the result while reusing its own buffer. *)
