(* Multicore serving benchmark: drive any stack of the registry with the
   Psnap_runtime load generator and report throughput plus latency
   percentiles.

     dune exec bin/loadgen.exe -- --impl sharded --shards 8 --domains 4 \
         --dist zipf --mix 90:10 --duration 2s --json out.json

   The stacks (fig1, fig3, ... and the sharded, resilient, durable and
   txn layers) and the option table live in lib/harness (Stack,
   Loadgen_cli); this file is their command line.  JSON summaries land
   wherever --json points (CI uses _artifacts/) and feed the
   BENCH_runtime.json trajectory. *)

module Scenario = Psnap_harness.Scenario
module Loadgen_cli = Psnap_harness.Loadgen_cli

let () =
  Scenario.main ~name:"loadgen"
    ~doc:"multicore load generator for partial snapshot objects"
    Loadgen_cli.default Loadgen_cli.flags Loadgen_cli.run
