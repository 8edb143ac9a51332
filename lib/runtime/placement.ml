(** Component placement for the sharded fronts ({!Sharded},
    {!Resilient}): [m] components over [min shards m] shards, so no shard
    is empty.  [`Round_robin] puts component [i] in shard
    [i mod nshards]; [`Range] gives each shard a contiguous block of
    [m / nshards] components, the first [m mod nshards] shards one more.
    Int arithmetic and int arrays only: grouping a scan allocates just the
    arrays it returns. *)

type t = { range : bool; nshards : int; m : int; q : int; rem : int }

(** @raise Invalid_argument ["<what>: empty"] if [m = 0],
    ["<what>: shards < 1"] if [shards < 1]. *)
let create ~what ~partition ~shards m =
  if m = 0 then invalid_arg (what ^ ": empty");
  if shards < 1 then invalid_arg (what ^ ": shards < 1");
  let nshards = min shards m in
  let range = match partition with `Range -> true | `Round_robin -> false in
  { range; nshards; m; q = m / nshards; rem = m mod nshards }

let check p ~err i = if i < 0 || i >= p.m then invalid_arg err

let size p s =
  if p.range then if s < p.rem then p.q + 1 else p.q
  else (p.m - s + p.nshards - 1) / p.nshards

(* Range: the first [rem] shards hold [q + 1] components, the rest [q];
   the short blocks start at [cut]. *)
let shard_of p i =
  if not p.range then i mod p.nshards
  else
    let cut = p.rem * (p.q + 1) in
    if i < cut then i / (p.q + 1) else p.rem + ((i - cut) / p.q)

(** Component [i]'s index inside shard [shard_of p i]. *)
let slot_of p i =
  if not p.range then i / p.nshards
  else
    let cut = p.rem * (p.q + 1) in
    if i < cut then i mod (p.q + 1) else (i - cut) mod p.q

let global p s j =
  if not p.range then (j * p.nshards) + s
  else if s < p.rem then (s * (p.q + 1)) + j
  else (p.rem * (p.q + 1)) + ((s - p.rem) * p.q) + j

(** Per shard, [f] of its components' values in [init], in slot order. *)
let split p init f =
  Array.init p.nshards (fun s ->
      Array.init (size p s) (fun j -> f init.(global p s j)))

(** A scan request grouped by shard. *)
type groups = {
  touched : int array;  (** the shards the request touches, ascending *)
  slots : int array array;
      (** [slots.(k)]: the slots requested from [touched.(k)], in request
          order, duplicates kept: that shard's sub-scan argument *)
  pos : int array array;  (** [pos.(k).(p)]: output position of slot p *)
}

(** Groups a non-empty request; [Invalid_argument err] on an index
    outside [\[0, m)]. *)
let group p ~err (idxs : int array) =
  (* [count.(s)]: requested components in shard [s]; once [s] is placed
     in [touched], its index there *)
  let count = Array.make p.nshards 0 and nt = ref 0 in
  for k = 0 to Array.length idxs - 1 do
    check p ~err idxs.(k);
    let s = shard_of p idxs.(k) in
    if count.(s) = 0 then incr nt;
    count.(s) <- count.(s) + 1
  done;
  let touched = Array.make !nt 0 and fill = Array.make !nt 0 in
  let slots = Array.make !nt [||] and pos = Array.make !nt [||] in
  let g = ref 0 in
  for s = 0 to p.nshards - 1 do
    if count.(s) > 0 then begin
      touched.(!g) <- s;
      slots.(!g) <- Array.make count.(s) 0;
      pos.(!g) <- Array.make count.(s) 0;
      count.(s) <- !g;
      incr g
    end
  done;
  for k = 0 to Array.length idxs - 1 do
    let g = count.(shard_of p idxs.(k)) in
    slots.(g).(fill.(g)) <- slot_of p idxs.(k);
    pos.(g).(fill.(g)) <- k;
    fill.(g) <- fill.(g) + 1
  done;
  { touched; slots; pos }

(** [f x touched.(k) slots.(k)] for every [k], in shard order. *)
let map_touched g x f =
  let rows = Array.make (Array.length g.touched) [||] in
  for k = 0 to Array.length rows - 1 do
    rows.(k) <- f x g.touched.(k) g.slots.(k)
  done;
  rows

(** The positions [k], ascending, not marked in [skip], whose rows
    [prev.(k)] and [cur.(k)] differ under [same] at some slot. *)
let disagreeing ~skip same prev cur =
  let dis = ref [] in
  for k = Array.length cur - 1 downto 0 do
    let a = prev.(k) and b = cur.(k) and p = ref 0 in
    if not skip.(k) then begin
      while !p < Array.length a && same a.(!p) b.(!p) do
        incr p
      done;
      if !p < Array.length a then dis := k :: !dis
    end
  done;
  !dis

(** The output vector of a request of length [len], given sub-scan rows
    [rows.(k)] parallel to [slots.(k)]; [value] projects a stored entry
    to its value. *)
let scatter g ~len rows value =
  let out = Array.make len (value rows.(0).(0)) in
  for k = 0 to Array.length rows - 1 do
    let row = rows.(k) and pos = g.pos.(k) in
    for p = 0 to Array.length row - 1 do
      out.(pos.(p)) <- value row.(p)
    done
  done;
  out
