(* Interactive workload driver: run any implementation under any scheduler
   with exact step accounting, crash–restart fault injection, history
   validation, and counterexample shrinking, straight from the command line.

     dune exec bin/simulate.exe -- --impl fig3 -m 64 -r 8 \
         --updaters 4 --scanners 2 --sched starve --seeds 20 --check

     # fault-injection campaign with minimization of any failure found:
     dune exec bin/simulate.exe -- --nemesis chaos --seeds 50 --check \
         --shrink --replay-file failing.sched

     # replay a saved (possibly shrunk) schedule:
     dune exec bin/simulate.exe -- --replay-file failing.sched --check

   Prints per-operation step statistics, contention measures, fault counts,
   and (with --check) runs the observation-based linearizability checker on
   every execution.  --json writes a machine-readable campaign summary.
   The campaign loop and the six scenarios it drives live in lib/harness
   (Campaign, Scenarios); this file is their command line. *)

module Scenario = Psnap_harness.Scenario
module Campaign = Psnap_harness.Campaign
module Scenarios = Psnap_harness.Scenarios

let run config =
  try
    let (Scenarios.Any t) = Scenarios.of_config config in
    Campaign.run config t
  with Scenario.Usage msg ->
    prerr_endline msg;
    2

open Cmdliner

let arg : type a. a Scenario.kind -> a -> Arg.info -> a Arg.t =
 fun kind default info ->
  match kind with
  | Switch -> Arg.flag info
  | Int -> Arg.opt Arg.int default info
  | Float -> Arg.opt Arg.float default info
  | Text -> Arg.opt Arg.string default info
  | Some_int -> Arg.opt Arg.(some int) default info
  | Some_text -> Arg.opt Arg.(some string) default info

(* Each option sets its field of the configuration. *)
let config =
  List.fold_left
    (fun config (Scenario.Flag f) ->
      let info = Arg.info [ f.name ] ~docv:f.docv ~doc:f.doc in
      let value = Arg.value (arg f.kind (f.get Scenario.default) info) in
      Term.(const f.set $ config $ value))
    (Term.const Scenario.default) Scenarios.flags

let cmd =
  Cmd.v
    (Cmd.info "simulate" ~doc:"drive partial snapshot workloads in the simulator")
    Term.(const run $ config)

let () = exit (Cmd.eval' cmd)
