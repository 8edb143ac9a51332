(* Index arrays as scans take them.  Every comparison is on [int], so the
   per-scan sort never goes through the polymorphic comparison
   primitives. *)

(* Scans are short (the paper's r), so insertion sort: already-sorted
   input — every window scan that does not wrap — costs r - 1
   comparisons and no moves.  Long inputs are checked for order in one
   pass first (a durable checkpoint's all-components scan is sorted) and
   fall back to the library heap sort only when out of order, so they
   stay O(r log r) at worst. *)
let insertion_limit = 32

(* is [a] non-decreasing from index [k - 1] on? *)
let rec sorted_from (a : int array) k =
  k >= Array.length a || (a.(k - 1) <= a.(k) && sorted_from a (k + 1))

let[@psnap.local_state
     "sorts a private copy in place; nothing is shared until returned"] sort
    (a : int array) =
  let n = Array.length a in
  if n > insertion_limit then begin
    if not (sorted_from a 1) then Array.sort Int.compare a
  end
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
