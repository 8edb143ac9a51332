(* Index arrays as scans take them.  Every comparison is on [int], so the
   per-scan sort never goes through the polymorphic comparison
   primitives. *)

(* Scans are short (the paper's r), so insertion sort: already-sorted
   input — every window scan that does not wrap — costs r - 1
   comparisons and no moves.  Long inputs fall back to the library
   heap sort, which stays O(r log r). *)
let insertion_limit = 32

let[@psnap.local_state
     "sorts a private copy in place; nothing is shared until returned"] sort
    (a : int array) =
  let n = Array.length a in
  if n > insertion_limit then Array.sort Int.compare a
  else
    for k = 1 to n - 1 do
      let x = a.(k) in
      let j = ref (k - 1) in
      while !j >= 0 && a.(!j) > x do
        a.(!j + 1) <- a.(!j);
        decr j
      done;
      a.(!j + 1) <- x
    done

let[@psnap.local_state
     "squeezes duplicates out of the private sorted copy before it is \
      returned"] sort_uniq (idxs : int array) =
  let a = Array.copy idxs in
  sort a;
  let n = Array.length a in
  let w = ref (min n 1) in
  for k = 1 to n - 1 do
    if a.(k) <> a.(!w - 1) then begin
      a.(!w) <- a.(k);
      incr w
    end
  done;
  if !w = n then a else Array.sub a 0 !w
