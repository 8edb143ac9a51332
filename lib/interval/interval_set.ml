(* Sorted list of disjoint, non-adjacent closed intervals.  The list is kept
   canonical so that structural equality coincides with set equality and the
   value can be used as the contents of a CAS object. *)

type t = (int * int) list

let empty = []

let is_empty = function [] -> true | _ :: _ -> false

let rec insert lo hi = function
  | [] -> [ (lo, hi) ]
  | (lo', hi') :: rest ->
    if hi + 1 < lo' then (lo, hi) :: (lo', hi') :: rest
    else if hi' + 1 < lo then (lo', hi') :: insert lo hi rest
    else
      (* overlapping or adjacent: coalesce and keep absorbing to the right *)
      absorb (min lo lo') (max hi hi') rest

and absorb lo hi = function
  | (lo', hi') :: rest when lo' <= hi + 1 -> absorb lo (max hi hi') rest
  | rest -> (lo, hi) :: rest

let add_range ~lo ~hi s =
  if lo > hi then invalid_arg "Interval_set.add_range: lo > hi";
  insert lo hi s

let add i s = insert i i s

let rec mem (i : int) = function
  | [] -> false
  | (lo, hi) :: rest -> if i < lo then false else i <= hi || mem i rest

let union a b =
  (* Merge two sorted canonical lists, coalescing as we go. *)
  let rec go acc a b =
    match (a, b) with
    | [], rest | rest, [] -> List.rev_append acc rest |> renorm
    | (la, ha) :: ta, (lb, _) :: _ when la <= lb -> go ((la, ha) :: acc) ta b
    | _, (lb, hb) :: tb -> go ((lb, hb) :: acc) a tb
  and renorm = function
    | (l1, h1) :: (l2, h2) :: rest when l2 <= h1 + 1 ->
      renorm ((l1, max h1 h2) :: rest)
    | (l1, h1) :: rest -> (l1, h1) :: renorm rest
    | [] -> []
  in
  go [] a b

let interval_count = List.length

let cardinal s = List.fold_left (fun n (lo, hi) -> n + hi - lo + 1) 0 s

let intervals s = s

let of_intervals l =
  List.fold_left (fun s (lo, hi) -> add_range ~lo ~hi s) empty l

let fold_gaps ~lo ~hi f init s =
  (* Walk [lo, hi], skipping covered stretches. *)
  let rec go acc i s =
    if i > hi then acc
    else
      match s with
      | [] -> go (f acc i) (i + 1) s
      | (l, h) :: rest ->
        if h < i then go acc i rest
        else if l <= i then go acc (h + 1) rest
        else go (f acc i) (i + 1) s
  in
  go init lo s

let rec equal (a : t) (b : t) =
  match (a, b) with
  | [], [] -> true
  | (la, ha) :: a, (lb, hb) :: b -> la = lb && ha = hb && equal a b
  | _ -> false

let invariant_ok s =
  let rec go = function
    | [] -> true
    | [ (lo, hi) ] -> lo <= hi
    | (lo, hi) :: ((lo', _) :: _ as rest) ->
      lo <= hi && hi + 1 < lo' && go rest
  in
  go s

let pp ppf s =
  Fmt.pf ppf "@[{%a}@]"
    (Fmt.list ~sep:Fmt.comma (fun ppf (lo, hi) ->
         if lo = hi then Fmt.int ppf lo else Fmt.pf ppf "%d-%d" lo hi))
    s
