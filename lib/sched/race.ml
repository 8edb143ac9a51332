(* Happens-before race checking for simulated executions (docs/MODEL.md
   §12).  The simulator serializes every run, so a data race never shows up
   as a wrong value here — what we check is whether the *algorithm* orders
   its accesses: would these two accesses have been allowed to overlap on a
   real multicore?

   Per-pid vector clocks (FastTrack-style):

   - every access first ticks the accessor's own component, so an event
     after a release is strictly above the clock the release published;
   - an access to a default (atomic) cell synchronizes: a read acquires
     (joins the cell's release clock into the reader), a write releases
     (joins the writer's clock into the cell), a *successful* CAS or F&A
     does both.  A failed CAS creates no edge: the OCaml memory model gives
     a failed [compare_and_set] no ordering guarantee, and algorithms that
     rely on one are exactly what this checker exists to catch;
   - an access to a *plain* cell ([Mem_sim.make_plain] — a model of an
     unsynchronized [ref]/field shared across domains) synchronizes
     nothing and is checked: a write must happen-after the cell's last
     write and every read since it; a read must happen-after the last
     write.  Violations are reported with both program points (pid, op and
     the global step clock of each access, which indexes straight into a
     recorded trace).

   Races are only ever reported on plain cells, so a run whose shared
   state is all-atomic — e.g. the fig3 snapshot — reports none by
   construction, and the checker doubles as a proof that a fixture's bug
   really is in its unsynchronized state. *)

type op = [ `Read | `Write ]

type access = {
  pid : int;
  op : op;
  clock : int;  (** global step count at the access — the program point;
                    indexes into a [record_trace] run's [Event.Step]s *)
  vclock : Vclock.t;  (** the accessor's clock at the access *)
}

type kind = Write_write | Write_read | Read_write

type report = {
  oid : int;
  name : string;
  kind : kind;
  first : access;  (** earlier in the serialized execution *)
  second : access;
}

type cell = {
  cname : string;
  mutable w : (Vclock.t * access) option;  (** last write *)
  reads : (int * access) option array;
      (** per-pid last read since the last write: (reader's own component
          at the read, the access) *)
}

module Oid_tbl = Hashtbl.Make (Int)

type state = {
  n : int;
  clocks : Vclock.t array;  (** per-pid current clock *)
  sync : Vclock.t Oid_tbl.t;  (** oid -> published release clock *)
  cells : cell Oid_tbl.t;  (** plain cells, lazily on first access *)
  mutable reports : report list;
      (** reversed; one per (oid, first pid, second pid, kind), not one
          per iteration of a racy loop *)
}

let state : state option ref = ref None

let enable ~n () =
  if n < 1 then invalid_arg "Race.enable: need at least one pid";
  state :=
    Some
      {
        n;
        clocks = Array.init n (fun _ -> Vclock.make n);
        sync = Oid_tbl.create 64;
        cells = Oid_tbl.create 16;
        reports = [];
      }

let disable () = state := None

let enabled () = Option.is_some !state

let reset () =
  match !state with Some s -> enable ~n:s.n () | None -> ()

let races () =
  match !state with Some s -> List.rev s.reports | None -> []

let race_count () =
  match !state with Some s -> List.length s.reports | None -> 0

let get_state fn =
  match !state with
  | Some s -> s
  | None -> failwith (fn ^ ": race checking is not enabled")

let tick s pid =
  if pid < 0 || pid >= s.n then
    invalid_arg
      (Printf.sprintf "Race: pid %d out of range (enabled for %d pids)" pid
         s.n);
  s.clocks.(pid) <- Vclock.incr s.clocks.(pid) pid

let on_sync ~oid ~pid ~acquire ~release =
  let s = get_state "Race.on_sync" in
  tick s pid;
  let l =
    match Oid_tbl.find_opt s.sync oid with
    | Some l -> l
    | None -> Vclock.make s.n
  in
  if acquire then s.clocks.(pid) <- Vclock.join s.clocks.(pid) l;
  if release then Oid_tbl.replace s.sync oid (Vclock.join l s.clocks.(pid))

let report s ~oid ~(cell : cell) ~kind ~first ~second =
  let seen (r : report) =
    Int.equal r.oid oid && Int.equal r.first.pid first.pid
    && Int.equal r.second.pid second.pid && r.kind == kind
  in
  if not (List.exists seen s.reports) then begin
    s.reports <-
      { oid; name = cell.cname; kind; first; second } :: s.reports
  end

let on_plain ~oid ~name ~pid ~(op : op) =
  let s = get_state "Race.on_plain" in
  tick s pid;
  let c = s.clocks.(pid) in
  let cell =
    match Oid_tbl.find_opt s.cells oid with
    | Some cell -> cell
    | None ->
      let cell = { cname = name; w = None; reads = Array.make s.n None } in
      Oid_tbl.add s.cells oid cell;
      cell
  in
  let acc = { pid; op; clock = Sim.clock (); vclock = Vclock.copy c } in
  (match cell.w with
  | Some (wv, wacc) when not (Vclock.leq wv c) ->
    report s ~oid ~cell
      ~kind:(if op = `Read then Write_read else Write_write)
      ~first:wacc ~second:acc
  | _ -> ());
  match op with
  | `Read -> cell.reads.(pid) <- Some (Vclock.get c pid, acc)
  | `Write ->
    Array.iteri
      (fun q r ->
        match r with
        | Some (epoch, racc) when q <> pid && Vclock.get c q < epoch ->
          report s ~oid ~cell ~kind:Read_write ~first:racc ~second:acc
        | _ -> ())
      cell.reads;
    cell.w <- Some (Vclock.copy c, acc);
    (* Reads before an ordered write are covered by the write's clock from
       now on; racy ones were just reported. *)
    Array.fill cell.reads 0 s.n None

let kind_to_string = function
  | Write_write -> "write-write"
  | Write_read -> "write-read"
  | Read_write -> "read-write"

let pp_op ppf (op : op) =
  Fmt.string ppf (match op with `Read -> "read" | `Write -> "write")

let pp_access ppf a =
  Fmt.pf ppf "p%d %a at step %d %a" a.pid pp_op a.op a.clock Vclock.pp
    a.vclock

let pp_report ppf r =
  Fmt.pf ppf "@[<v2>%s race on %s#%d:@,%a@,%a@]" (kind_to_string r.kind)
    r.name r.oid pp_access r.first pp_access r.second

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let access_to_json a =
  Printf.sprintf {|{"pid":%d,"op":"%s","step":%d}|} a.pid
    (match a.op with `Read -> "read" | `Write -> "write")
    a.clock

let report_to_json r =
  Printf.sprintf {|{"cell":"%s","oid":%d,"kind":"%s","first":%s,"second":%s}|}
    (json_escape r.name) r.oid (kind_to_string r.kind)
    (access_to_json r.first) (access_to_json r.second)
