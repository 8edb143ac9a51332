(* Seeded operation streams and the value encoding the output checks read.

   Streams are built before any timing starts: the timed loop only reads
   them back (cyclically), so the Zipf sampler's binary search is never
   charged to the library.  An operation is one int:
   [(payload lsl 2) lor kind]. *)

let k_update = 0
let k_scan = 1
let k_audit = 2

let kind op = op land 3

let payload op = op lsr 2

let pack ~kind payload = (payload lsl 2) lor kind

let stream_len = 1 lsl 17

(* [stream ~seed ~salt ~pid f] draws [stream_len] operations with [f],
   from a generator that depends only on the arguments. *)
let stream ~seed ~salt ~pid f =
  let rng = Random.State.make [| seed; salt; pid; 0x5eed |] in
  Array.init stream_len (fun _ -> f rng)

let zipf ~n = Psnap.Runtime.Loadgen.Zipf.create ~theta:0.99 ~n

let sample z rng = Psnap.Runtime.Loadgen.Zipf.sample z rng

(* Update-or-window-scan streams: [update_pct] percent updates; both the
   update index and the window base are zipf(0.99) over [m]. *)
let mixed ~seed ~salt ~pid ~m ~update_pct =
  let z = zipf ~n:m in
  stream ~seed ~salt ~pid (fun rng ->
      let upd = Random.State.int rng 100 < update_pct in
      pack ~kind:(if upd then k_update else k_scan) (sample z rng))

(* The component each update of a stream writes, in stream order: the
   [seq]-th update of a writer (seq from 1) goes to
   [targets.((seq - 1) mod length)]. *)
let update_targets s =
  Array.of_list
    (List.filter_map
       (fun op -> if kind op = k_update then Some (payload op) else None)
       (Array.to_list s))

let with_targets streams = (streams, Array.map update_targets streams)

(* ---- values written by writer [w], sequence number [seq] >= 1, into
   component [i]; component [i] starts at [initial i] ---- *)

let initial i = -(i + 1)

let encode ~m ~writers ~w ~seq i = (((seq * writers) + w) * m) + i

exception Check_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Check_failed s)) fmt

(* Per-scanner checker: every value read from component [i] is its
   initial value or a value some writer wrote to [i] (the writer's own
   stream says which component its [seq]-th update targets), and per
   writer the sequence numbers read from one component never go
   backwards. *)
module Vcheck = struct
  type t = {
    m : int;
    writers : int;
    targets : int array array; (* per writer, see [update_targets] *)
    last : int array; (* writers * m: last seq seen, 0 = none *)
    max_seq : int array; (* per writer: largest seq ever read *)
  }

  let create ~m ~targets =
    let writers = Array.length targets in
    {
      m;
      writers;
      targets;
      last = Array.make (writers * m) 0;
      max_seq = Array.make writers 0;
    }

  let value c i v =
    let m = c.m in
    if v < 0 then begin
      if v <> initial i then fail "component %d read %d: not its initial value" i v;
      for w = 0 to c.writers - 1 do
        if c.last.((w * m) + i) > 0 then
          fail "component %d went back to its initial value after writer %d's seq %d"
            i w c.last.((w * m) + i)
      done
    end
    else begin
      let idx = v mod m and q = v / m in
      let w = q mod c.writers and seq = q / c.writers in
      if idx <> i then fail "component %d read a value written to component %d" i idx;
      let tg = c.targets.(w) in
      if seq < 1 || Array.length tg = 0 || tg.((seq - 1) mod Array.length tg) <> i
      then fail "component %d read writer %d's seq %d, which never targeted it" i w seq;
      let slot = (w * m) + i in
      if seq < c.last.(slot) then
        fail "component %d went backwards: writer %d's seq %d after seq %d" i w
          seq c.last.(slot);
      c.last.(slot) <- seq;
      if seq > c.max_seq.(w) then c.max_seq.(w) <- seq
    end

  let scan c idxs vs =
    for k = 0 to Array.length idxs - 1 do
      value c idxs.(k) vs.(k)
    done

  (* After the run: nobody read a value from a writer's future. *)
  let no_future checkers ~final_seq =
    Array.iter
      (fun c ->
        Array.iteri
          (fun w s ->
            if s > final_seq.(w) then
              fail "writer %d's seq %d was read but it stopped at seq %d" w s
                final_seq.(w))
          c.max_seq)
      checkers
end
