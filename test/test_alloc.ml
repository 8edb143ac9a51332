(* Allocation gate: minor-heap words per operation on the scan and update
   hot paths.  One domain over Mem.Atomic, so Gc.minor_words counts
   exactly the operations' own allocations and the figures are
   deterministic for a fixed operation sequence.  Each budget is the
   measured figure plus a small margin; a change that allocates more per
   operation on these paths fails here.

   Measured with OCaml 5.1.1, minor words per operation, before and after
   the scan path dropped its list/tuple/closure churn:
     fig3 scan, r = 16                           742.0 -> 183.0
     fig3 update                                  89.0 ->  79.0
     resilient 8-range scan, one shard, r = 16  1177.9 -> 262.9

   and before/after the durable commit path dropped its Printf framing and
   per-call closures (Durable.Make (Mem.Atomic) (Mc_fig3) (Storage.Mc),
   no checkpoints; the fig3 update's own 79 words included):
     durable update                              239.1 -> 113.0

   and before/after a read-write commit published from its validation scan
   instead of scanning each written component again (Mc_txn_fig3, one
   transfer: begin, 2 reads, 2 writes, commit):
     txn transfer                                752.4 -> 635.2 *)

open Psnap
module Mc = Psnap_harness.Loadgen_cli.Mc_stack

let ops = 2_000

(* [f k] for k = 0 .. ops-1, after a warm-up; minor words per call *)
let words_per_op f =
  for k = 0 to 199 do
    f k
  done;
  let w0 = Gc.minor_words () in
  for k = 0 to ops - 1 do
    f k
  done;
  (Gc.minor_words () -. w0) /. float ops

let gate name ~budget f =
  let w = words_per_op f in
  Printf.printf "%s: %.1f minor words/op (budget %.0f)\n%!" name w budget;
  if w > budget then
    Alcotest.failf "%s allocates %.1f minor words/op, over its budget of %.0f"
      name w budget

let m = 1024

let r = 16

(* r-component windows, every one inside a single 128-component block *)
let window k = Array.init r (fun j -> ((k * 128) + j) mod m)

let test_fig3_scan () =
  let t = Mc_fig3.create ~n:1 (Array.init m Fun.id) in
  let h = Mc_fig3.handle t ~pid:0 in
  let ws = Array.init 8 window in
  gate "fig3 scan (r=16)" ~budget:200. (fun k ->
      ignore (Mc_fig3.scan h ws.(k land 7)))

let test_fig3_update () =
  let t = Mc_fig3.create ~n:1 (Array.init m Fun.id) in
  let h = Mc_fig3.handle t ~pid:0 in
  gate "fig3 update" ~budget:90. (fun k -> Mc_fig3.update h (k land (m - 1)) k)

let test_durable_update () =
  let module D = Mc.Durable (Persist.Storage.Mc) in
  let t =
    D.create_with
      ~config:{ D.checkpoint_every = 0; write_ahead = true }
      ~n:1 (Array.init m Fun.id)
  in
  let h = D.handle t ~pid:0 in
  gate "durable update" ~budget:125. (fun k -> D.update h (k land (m - 1)) k)

module Res =
  Mc.Resilient (Mc.Fig3) (Mc.Fig3)
    (struct
      let shards = 8
      let partition = `Range
      let max_rounds = 6
    end)

let test_resilient_scan () =
  let t = Res.create ~n:1 (Array.init m Fun.id) in
  let h = Res.handle t ~pid:0 in
  let ws = Array.init 8 window in
  gate "resilient 8-range scan (one shard, r=16)" ~budget:290. (fun k ->
      match Res.scan_outcome h ws.(k land 7) with
      | Res.Atomic _ -> ()
      | Res.Degraded _ -> Alcotest.fail "uncontended scan degraded")

let test_txn_transfer () =
  let module T = Mc_txn_fig3 in
  let t = T.create ~n:1 (Array.make 64 100) in
  let h = T.handle t ~pid:0 in
  gate "txn transfer (2 reads, 2 writes)" ~budget:700. (fun k ->
      let a = k land 63 and b = (k + 1) land 63 in
      let x = T.begin_ h in
      let va = T.read x a and vb = T.read x b in
      T.write x a (va - 1);
      T.write x b (vb + 1);
      match T.commit x with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "uncontended transfer aborted")

let () =
  Alcotest.run "alloc"
    [
      ( "minor words per op",
        [
          Alcotest.test_case "fig3 scan" `Quick test_fig3_scan;
          Alcotest.test_case "fig3 update" `Quick test_fig3_update;
          Alcotest.test_case "durable update" `Quick test_durable_update;
          Alcotest.test_case "resilient scan" `Quick test_resilient_scan;
          Alcotest.test_case "txn transfer" `Quick test_txn_transfer;
        ] );
    ]
