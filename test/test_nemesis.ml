(* Golden decision streams for the nemeses of [Scheduler].

   A synthetic view driver stands in for [Sim.run]: [n] processes step
   through scripted accesses (an op kind and a named cell per step), and
   each decision is applied as the simulator applies it — [Run] advances
   the pid and the clock, [Crash], [Restart] and [Power_loss] move pids
   between runnable and crashed, and the other faults are absorbed.  Every
   nemesis runs over a seeded [random] inner policy at three seeds for up
   to [limit] decisions, once in a world with a recovery function (crashed
   pids are restartable) and once in a world without (a crash is
   permanent).  For each run the test records the nemesis's name, every
   decision other than [Run] with its index and clock, and a digest of the
   whole stream, and compares the text with [nemesis.expected].  A change
   to a nemesis's random draws, its follow-ups or its fall-through to the
   inner policy changes that text.

   Regenerate it only when a nemesis is meant to change:
     dune exec test/test_nemesis.exe -- --generate > test/nemesis.expected *)

open Psnap
module S = Scheduler

let n = 4

let limit = 2000

let seeds = [ 0; 42; 600 ]

(* Pid [p]'s [k]-th access of its current incarnation: an op kind and a
   cell (oid, name).  Pid 3 finishes after [finite_len] accesses per
   incarnation; the others never finish. *)
let ops = [| Event.Read; Event.Cas; Event.Write; Event.Faa; Event.Read; Event.Cas |]

let names =
  [|
    "x"; "shard0.epoch"; "rshard1.epoch"; "shard1.epoch"; "y"; "rshard2.ptr";
    "shard2.epoch"; "z";
  |]

let op_at p k = ops.((p + k) mod Array.length ops)

let oid_at p k = ((3 * p) + k) mod Array.length names

let finite_pid = 3

let finite_len = 150

type state = Running | Crashed | Finished

type world = {
  recover : bool;
  pos : int array;  (** accesses done in the current incarnation *)
  steps : int array;  (** accesses done across incarnations *)
  state : state array;
  mutable clock : int;
}

let world recover =
  {
    recover;
    pos = Array.make n 0;
    steps = Array.make n 0;
    state = Array.make n Running;
    clock = 0;
  }

let pids w st =
  Array.of_list (List.filter (fun p -> w.state.(p) = st) (List.init n Fun.id))

let view w =
  let running p = w.state.(p) = Running in
  let at f p = if running p then Some (f p w.pos.(p)) else None in
  {
    S.runnable = pids w Running;
    crashed = (if w.recover then pids w Crashed else [||]);
    clock = w.clock;
    op_of = at op_at;
    oid_of = at oid_at;
    name_of = at (fun p k -> names.(oid_at p k));
    steps_of = (fun p -> w.steps.(p));
  }

(* In-flight links for the network nemeses: a function of the clock, empty
   at every fifth tick. *)
let inflight w () =
  if w.clock mod 5 = 0 then [||]
  else [| (0, 1); (w.clock mod 3, 2); (2, 0) |]

(* Applies [d] as [Sim.run] does; [Error] for a decision the simulator
   would reject. *)
let apply w d =
  let bad () = Error ("invalid " ^ S.decision_to_string d) in
  match d with
  | S.Run p when w.state.(p) = Running ->
    w.clock <- w.clock + 1;
    w.steps.(p) <- w.steps.(p) + 1;
    w.pos.(p) <- w.pos.(p) + 1;
    if p = finite_pid && w.pos.(p) >= finite_len then w.state.(p) <- Finished;
    Ok ()
  | S.Crash p when w.state.(p) = Running ->
    w.state.(p) <- Crashed;
    Ok ()
  | S.Restart p when w.recover && w.state.(p) = Crashed ->
    w.state.(p) <- Running;
    w.pos.(p) <- 0;
    Ok ()
  | S.Power_loss ->
    Array.iteri
      (fun p st -> if st = Running then w.state.(p) <- Crashed)
      w.state;
    Ok ()
  | S.Mem_fault _ | S.Net_fault _ | S.Reconfig -> Ok ()
  | S.Run _ | S.Crash _ | S.Restart _ | S.Stop -> bad ()

let stream buf label make ~recover seed =
  let w = world recover in
  let sched = make ~inflight:(inflight w) ~seed in
  Printf.bprintf buf "== %s seed=%d %s name=%s\n" label seed
    (if recover then "recover" else "halt")
    (S.name sched);
  let all = Buffer.create 16384 in
  let rec go i =
    let v = view w in
    if i >= limit then "limit"
    else if Array.length v.S.runnable = 0 && Array.length v.S.crashed = 0
    then "over"
    else
      match S.pick sched v with
      | exception e -> "raised " ^ Printexc.to_string e
      | d -> (
        let s = S.decision_to_string d in
        Buffer.add_string all s;
        Buffer.add_char all '\n';
        (match d with
        | S.Run _ -> ()
        | _ -> Printf.bprintf buf "%d @%d %s\n" i w.clock s);
        match d with
        | S.Stop -> "stop"
        | _ -> ( match apply w d with Ok () -> go (i + 1) | Error e -> e))
  in
  let ending = go 0 in
  Printf.bprintf buf "digest %s end=%s\n"
    (Digest.to_hex (Digest.string (Buffer.contents all)))
    ending

let inner seed = S.random ~seed:(seed + 17) ()

let nodes = [ 0; 1; 2; 3 ]

(* (label, nemesis over [inner seed]).  Beyond each nemesis at its
   defaults, the list pins non-default parameters and compositions whose
   views are odd for the outer nemesis: a victim crashed or rebooted by
   someone else, a blackout under a pending restart, detours over faults. *)
let cases =
  [
    ( "with_crash",
      fun ~inflight:_ ~seed ->
        S.with_crash ~pid:(seed mod n) ~at_clock:(50 + (seed mod 97)) (inner seed)
    );
    ( "with_crash_restart",
      fun ~inflight:_ ~seed ->
        S.with_crash_restart ~pid:1 ~crash_at:60 ~restart_after:25 (inner seed)
    );
    ( "with_crash_restart/blackout",
      fun ~inflight:_ ~seed ->
        S.with_crash_restart ~pid:2 ~crash_at:30 ~restart_after:500
          (S.power_loss_at ~at_clock:80 (inner seed)) );
    ( "with_crash_restart/finished",
      fun ~inflight:_ ~seed ->
        S.with_crash_restart ~pid:finite_pid ~crash_at:200 ~restart_after:5
          (inner seed) );
    ("crash_storm", fun ~inflight:_ ~seed -> S.crash_storm ~seed (inner seed));
    ( "crash_storm/adopt",
      fun ~inflight:_ ~seed ->
        S.crash_storm ~seed ~rate:0.05 ~max_crashes:12 ~restart_after:5
          (S.with_crash ~pid:0 ~at_clock:10 (inner seed)) );
    ("chaos", fun ~inflight:_ ~seed -> S.chaos ~seed ~inner:(inner seed) ());
    ("chaos/default-inner", fun ~inflight:_ ~seed -> S.chaos ~seed ());
    ( "chaos/blackouts",
      fun ~inflight:_ ~seed ->
        S.chaos ~seed ~rate:0.1 ~max_crashes:20 ~max_restart_delay:8
          ~inner:(S.power_storm ~seed ~rate:0.01 (inner seed))
          () );
    ("mem_storm", fun ~inflight:_ ~seed -> S.mem_storm ~seed (inner seed));
    ( "mem_storm/kinds",
      fun ~inflight:_ ~seed ->
        S.mem_storm ~seed ~kinds:[ Event.Corrupt; Event.Stuck_cell ] ~rate:0.1
          ~max_faults:30 (inner seed) );
    ( "corrupt_on_op",
      fun ~inflight:_ ~seed ->
        S.corrupt_on_op ~pid:2 ~op:Event.Cas ~nth:3 (inner seed) );
    ( "corrupt_on_op/write",
      fun ~inflight:_ ~seed ->
        S.corrupt_on_op ~pid:(seed mod n) ~op:Event.Write (inner seed) );
    ( "corrupt_on_op/crashed",
      fun ~inflight:_ ~seed ->
        S.corrupt_on_op ~pid:1 ~op:Event.Faa ~nth:40
          (S.crash_storm ~seed ~rate:0.1 (inner seed)) );
    ( "mem_fault_on_cell",
      fun ~inflight:_ ~seed ->
        S.mem_fault_on_cell ~kind:Event.Stuck_cell ~name_prefix:"rshard1."
          ~at_clock:30 (inner seed) );
    ( "mem_fault_on_cell/default-clock",
      fun ~inflight:_ ~seed ->
        S.mem_fault_on_cell ~kind:Event.Lost_write ~name_prefix:"z"
          (inner seed) );
    ( "power_loss_at",
      fun ~inflight:_ ~seed ->
        S.power_loss_at ~at_clock:(100 + (seed mod 50)) (inner seed) );
    ("power_storm", fun ~inflight:_ ~seed -> S.power_storm ~seed (inner seed));
    ( "power_storm/often",
      fun ~inflight:_ ~seed ->
        S.power_storm ~seed ~rate:0.02 ~max_losses:5
          (S.with_crash ~pid:1 ~at_clock:20 (inner seed)) );
    ( "stall_cells",
      fun ~inflight:_ ~seed ->
        S.stall_cells
          ~matches:(String.starts_with ~prefix:"shard")
          ~from_clock:20 ~until_clock:400 (inner seed) );
    ( "stall_shard",
      fun ~inflight:_ ~seed ->
        S.stall_shard ~shard:1 ~from_clock:0 ~until_clock:300
          (S.crash_storm ~seed (inner seed)) );
    ("slow_domain", fun ~inflight:_ ~seed -> S.slow_domain ~pid:0 (inner seed));
    ( "slow_domain/faults",
      fun ~inflight:_ ~seed ->
        S.slow_domain ~pid:1 ~period:3
          (S.crash_storm ~seed ~rate:0.05 (inner seed)) );
    ( "partition_storm",
      fun ~inflight:_ ~seed -> S.partition_storm ~seed ~nodes (inner seed) );
    ( "partition_storm/victims",
      fun ~inflight:_ ~seed ->
        S.partition_storm ~seed ~nodes:[ 0; 1; 2 ] ~victims:[ 1; 2 ] ~rate:0.05
          ~heal_after:0 ~max_partitions:6 (inner seed) );
    ( "partition_storm/lonely-victim",
      fun ~inflight:_ ~seed ->
        S.partition_storm ~seed ~nodes:[ 1 ] ~victims:[ 1; 2 ] ~rate:0.05
          ~heal_after:40 ~max_partitions:8 (inner seed) );
    ( "heal_after",
      fun ~inflight:_ ~seed ->
        S.heal_after ~victim:2 ~peers:nodes ~at_clock:40 ~after:80
          (inner seed) );
    ( "heal_after/now",
      fun ~inflight:_ ~seed ->
        S.heal_after ~victim:0 ~peers:[ 1 ] ~at_clock:0 ~after:0 (inner seed)
    );
    ( "dup_flood",
      fun ~inflight ~seed -> S.dup_flood ~seed ~inflight (inner seed) );
    ( "lag_spike",
      fun ~inflight ~seed -> S.lag_spike ~seed ~inflight (inner seed) );
    ( "lag_spike/bursts",
      fun ~inflight ~seed ->
        S.lag_spike ~seed ~inflight ~rate:0.1 ~burst:3 ~max_spikes:20
          (inner seed) );
    ( "replica_death",
      fun ~inflight:_ ~seed ->
        S.replica_death ~seed ~victims:[ 1; 2; 3 ] ~rate:0.02 (inner seed) );
    ( "replica_death/many",
      fun ~inflight:_ ~seed ->
        S.replica_death ~seed ~victims:[ 0; 3 ] ~rate:0.05 ~max_deaths:2
          (inner seed) );
    ( "rolling_restart",
      fun ~inflight:_ ~seed -> S.rolling_restart ~victims:[ 0; 1; 2 ] (inner seed)
    );
    ( "rolling_restart/fast",
      fun ~inflight:_ ~seed ->
        S.rolling_restart ~victims:[ 3; 0; 1 ] ~start_at:5 ~gap:10
          ~down_for:15 (inner seed) );
    ( "rolling_restart/finished",
      fun ~inflight:_ ~seed ->
        S.rolling_restart ~victims:[ finite_pid; 0 ] ~start_at:900 (inner seed)
    );
    ( "rolling_restart/blackout",
      fun ~inflight:_ ~seed ->
        S.rolling_restart ~victims:[ 0; 1; 2 ] ~start_at:10 ~down_for:100
          (S.power_loss_at ~at_clock:50 (inner seed)) );
    ("config_churn", fun ~inflight:_ ~seed -> S.config_churn ~seed (inner seed));
    ( "config_churn/partitioned",
      fun ~inflight:_ ~seed ->
        S.config_churn ~seed ~rate:0.05 ~max_reconfigs:10
          (S.partition_storm ~seed ~nodes ~rate:0.03 ~heal_after:30
             (inner seed)) );
  ]

let render (label, make) =
  let buf = Buffer.create 4096 in
  List.iter
    (fun recover ->
      List.iter (fun seed -> stream buf label make ~recover seed) seeds)
    [ true; false ];
  Buffer.contents buf

(* The expected file's blocks for [label], in order. *)
let expected_for lines label =
  let header = "== " ^ label ^ " " in
  let rec go keep acc = function
    | [] -> List.rev acc
    | l :: tl when String.starts_with ~prefix:"== " l ->
      let keep = String.starts_with ~prefix:header l in
      go keep (if keep then l :: acc else acc) tl
    | l :: tl -> go keep (if keep then l :: acc else acc) tl
  in
  go false [] lines

let read_lines file =
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let check_case expected ((label, _) as case) () =
  let got =
    String.split_on_char '\n' (render case) |> List.filter (fun l -> l <> "")
  in
  let want = expected_for expected label in
  let rec first_diff i = function
    | g :: gs, w :: ws when g = w -> first_diff (i + 1) (gs, ws)
    | [], [] -> ()
    | gs, ws ->
      let show = function [] -> "<end>" | l :: _ -> l in
      Alcotest.failf "%s: line %d differs:\n  expected: %s\n  got:      %s"
        label i (show ws) (show gs)
  in
  first_diff 1 (got, want)

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--generate" then
    List.iter (fun case -> print_string (render case)) cases
  else
    let expected = read_lines "nemesis.expected" in
    Alcotest.run "nemesis"
      [
        ( "golden decision streams",
          List.map
            (fun ((label, _) as case) ->
              Alcotest.test_case label `Quick (check_case expected case))
            cases );
      ]
