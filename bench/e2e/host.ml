(* Host speed, from a fixed probe that calls no library code.

   The 2-vCPU VM this benchmark was sized on is shared with other
   tenants, and its speed drifts: for seconds to minutes at a time,
   every workload runs up to 1.8x slower. The benchmark therefore times
   this probe between the runs it measures (see [measure] in
   amcast_bench.ml) and reports each run's time over the probe's, times
   [reference_ns]: the run's time on this machine at its usual speed.
   On ten processes per workload in a noisy hour, that took the spread
   between processes from 0.24-0.33 to 0.03-0.07; README.md has the
   numbers, and those of the other probes tried.

   The probe only builds short lists and folds them, 11.5 MB a call,
   none of which outlives a minor collection. The minor heap (2 MB) is
   as large as a core's L2 cache, so the probe streams through memory
   as the library's allocation does, and slows with it. Lookups in
   tables of 1 or 10 MB, and sequential writes and reads over 16 MB,
   tracked the workloads less well. A probe that builds a hash table
   pays for the major-heap work the run before it left, up to twice its
   time after an exploration; this one leaves next to nothing in the
   major heap, so a run's garbage does not slow it. *)

let work () =
  let acc = ref 0 in
  for i = 0 to 59_999 do
    acc := !acc + List.fold_left ( + ) 0 (List.rev_map succ [ i; i + 1; i + 2; i + 3 ])
  done;
  !acc

(* The probe's usual time on the reference machine (2-vCPU Xeon VM at
   2.0 GHz, OCaml 5.1.1), in ns. *)
let reference_ns = 2_000_000.

(* One timing of the probe, in ns. *)
let probe () =
  let t0 = Span.now () in
  ignore (Sys.opaque_identity (work ()));
  float_of_int (Span.now () - t0)
