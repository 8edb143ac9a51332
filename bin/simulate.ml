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
  let (Scenarios.Any t) = Scenarios.of_config config in
  Campaign.run config t

let () =
  Scenario.main ~name:"simulate"
    ~doc:"drive partial snapshot workloads in the simulator" Scenario.default
    Scenarios.flags run
