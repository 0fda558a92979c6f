open Bp_sim
module Loadgen = Bp_harness.Loadgen

type arrival = { index : int; client : int; at : Time.t }

(* The canonical per-arrival draw order, shared with [Loadgen.run]: gap_0
   from time zero; then, inside arrival i, gap_{i+1} (when a successor exists)
   followed by client_i. *)
let plan ~rng (spec : Loadgen.spec) =
  let t = Loadgen.create ~rng spec in
  let arr = Array.make spec.count { index = 0; client = 0; at = Time.zero } in
  let rec fill i at =
    let next =
      if i + 1 < spec.count then
        Some (Time.add at (Time.of_ms (Loadgen.next_gap_ms t)))
      else None
    in
    let client = Loadgen.next_client t in
    arr.(i) <- { index = i; client; at };
    match next with Some a -> fill (i + 1) a | None -> ()
  in
  fill 0 (Time.of_ms (Loadgen.next_gap_ms t));
  arr
