(* Fixed-width functional vector clocks over pids 0..n-1.  The values are
   immutable int arrays: [incr]/[join] allocate, so a snapshot stored by
   the race checker (the clock of the last write to a cell) can never be
   mutated behind its back by later events of the same process. *)

type t = int array

let make n =
  if n < 1 then invalid_arg "Vclock.make: need at least one pid";
  Array.make n 0

let size = Array.length

let get (t : t) pid = t.(pid)

let incr (t : t) pid =
  let c = Array.copy t in
  c.(pid) <- c.(pid) + 1;
  c

let join (a : t) (b : t) =
  if Array.length a <> Array.length b then
    invalid_arg "Vclock.join: size mismatch";
  Array.init (Array.length a) (fun i -> max a.(i) b.(i))

let leq (a : t) (b : t) =
  if Array.length a <> Array.length b then
    invalid_arg "Vclock.leq: size mismatch";
  let ok = ref true in
  Array.iteri (fun i x -> if x > b.(i) then ok := false) a;
  !ok

let equal (a : t) (b : t) =
  Array.length a = Array.length b && Array.for_all2 Int.equal a b

(* The partial order of happens-before: two clocks are [`Concurrent] when
   neither dominates — exactly the situation in which two accesses race. *)
let compare (a : t) (b : t) =
  match (leq a b, leq b a) with
  | true, true -> `Eq
  | true, false -> `Lt
  | false, true -> `Gt
  | false, false -> `Concurrent

let copy = Array.copy

let pp ppf (t : t) =
  Fmt.pf ppf "[%a]" Fmt.(array ~sep:(any ",") int) t

let to_string t = Fmt.str "%a" pp t
