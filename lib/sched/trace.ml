(** Post-mortem analysis of recorded executions ([Sim.run ~record_trace]).
    Used by scheduler tests and for debugging: who took which steps, on
    which objects, and how bursty the interleaving was. *)

module Int_map = Map.Make (Int)

(* (oid, name) pairs, ordered as the polymorphic compare orders them *)
let compare_obj (o1, n1) (o2, n2) =
  match Int.compare o1 o2 with 0 -> String.compare n1 n2 | c -> c

module Obj_map = Map.Make (struct
  type t = int * string

  let compare = compare_obj
end)

let steps (trace : Event.t list) =
  List.filter_map
    (function
      | Event.Step _ as e -> Some e
      | Event.Crash _ | Event.Restart _ | Event.Mem_fault _ | Event.Power_loss _
      | Event.Net_fault _ | Event.Reconfig _ ->
        None)
    trace

let bump key m = Int_map.update key (fun n -> Some (1 + Option.value ~default:0 n)) m

let steps_by_pid trace =
  List.fold_left
    (fun m -> function
      | Event.Step { pid; _ } -> bump pid m
      | Event.Crash _ | Event.Restart _ | Event.Mem_fault _ | Event.Power_loss _
      | Event.Net_fault _ | Event.Reconfig _ ->
        m)
    Int_map.empty trace
  |> Int_map.bindings

let steps_by_object trace =
  List.fold_left
    (fun m -> function
      | Event.Step { oid; obj_name; _ } ->
        Obj_map.update (oid, obj_name)
          (fun n -> Some (1 + Option.value ~default:0 n))
          m
      | Event.Crash _ | Event.Restart _ | Event.Mem_fault _ | Event.Power_loss _
      | Event.Net_fault _ | Event.Reconfig _ ->
        m)
    Obj_map.empty trace
  |> Obj_map.bindings
  |> List.map (fun ((oid, name), n) -> (oid, name, n))
  |> List.sort (fun (oid1, n1, a) (oid2, n2, b) ->
         (* hottest first; ties broken by (oid, name) so the order is a
            function of the trace alone *)
         match Int.compare b a with
         | 0 -> compare_obj (oid1, n1) (oid2, n2)
         | c -> c)

let context_switches trace =
  let rec go last n = function
    | [] -> n
    | Event.Step { pid; _ } :: rest ->
      go (Some pid) (match last with Some p when p <> pid -> n + 1 | _ -> n) rest
    | ( Event.Crash _ | Event.Restart _ | Event.Mem_fault _
      | Event.Power_loss _ | Event.Net_fault _ | Event.Reconfig _ )
      :: rest ->
      go last n rest
  in
  go None 0 trace

let crashes trace =
  List.filter_map
    (function
      | Event.Crash { pid; _ } -> Some pid
      | Event.Step _ | Event.Restart _ | Event.Mem_fault _ | Event.Power_loss _
      | Event.Net_fault _ | Event.Reconfig _ ->
        None)
    trace

let restarts trace =
  List.filter_map
    (function
      | Event.Restart { pid; _ } -> Some pid
      | Event.Step _ | Event.Crash _ | Event.Mem_fault _ | Event.Power_loss _
      | Event.Net_fault _ | Event.Reconfig _ ->
        None)
    trace

let mem_faults trace =
  List.filter_map
    (function
      | Event.Mem_fault { kind; oid; _ } -> Some (kind, oid)
      | Event.Step _ | Event.Crash _ | Event.Restart _ | Event.Power_loss _
      | Event.Net_fault _ | Event.Reconfig _ ->
        None)
    trace

let net_faults trace =
  List.filter_map
    (function
      | Event.Net_fault { kind; src; dst; _ } -> Some (kind, src, dst)
      | Event.Step _ | Event.Crash _ | Event.Restart _ | Event.Mem_fault _
      | Event.Power_loss _ | Event.Reconfig _ ->
        None)
    trace

let power_losses trace =
  List.fold_left
    (fun n -> function Event.Power_loss _ -> n + 1 | _ -> n)
    0 trace

let reconfigs trace =
  List.fold_left
    (fun n -> function Event.Reconfig _ -> n + 1 | _ -> n)
    0 trace

(* The slice of a recorded execution spanning a race's two program points
   (the step clocks in a [Race.report]), faults included: replaying the
   prefix up to [until_clock] reproduces the race, and this window is where
   the interesting interleaving lives. *)
let race_window ~from_clock ~until_clock trace =
  let clock_of = function
    | Event.Step { clock; _ }
    | Event.Crash { clock; _ }
    | Event.Restart { clock; _ }
    | Event.Mem_fault { clock; _ }
    | Event.Power_loss { clock }
    | Event.Net_fault { clock; _ }
    | Event.Reconfig { clock } ->
      clock
  in
  List.filter
    (fun e ->
      let c = clock_of e in
      c >= from_clock && c <= until_clock)
    trace

let schedule trace =
  List.map
    (function
      | Event.Step { pid; _ } -> Scheduler.Run pid
      | Event.Crash { pid; _ } -> Scheduler.Crash pid
      | Event.Restart { pid; _ } -> Scheduler.Restart pid
      | Event.Mem_fault { kind; oid; _ } -> Scheduler.Mem_fault { kind; oid }
      | Event.Power_loss _ -> Scheduler.Power_loss
      | Event.Net_fault { kind; src; dst; _ } ->
        Scheduler.Net_fault { kind; src; dst }
      | Event.Reconfig _ -> Scheduler.Reconfig)
    trace

let pp ppf trace = List.iter (Fmt.pf ppf "%a@." Event.pp) trace
