type t = {
  nodes : Bp_sim.Addr.t array;
  f : int;
  keystore : Bp_crypto.Signer.t;
  tag : string;
  batch_max : int;
  batch_min_fill : int;
  batch_hold : Bp_sim.Time.t;
  request_timeout : Bp_sim.Time.t;
  checkpoint_interval : int;
  watermark_window : int;
  max_in_flight : int;
  identities : string Bp_sim.Addr.Tbl.t;
}

(* Identity strings are built once per address and memoized. The first
   use still provisions the identity in the keystore at exactly the point
   it always did: client identities are provisioned lazily, each drawing a
   key from the keystore RNG, so moving that draw would shift every later
   key. A memo hit implies the keystore already holds the identity, which
   the keystore never forgets, so skipping [add_identity] then is exact. *)
let identity t addr =
  match Bp_sim.Addr.Tbl.find_opt t.identities addr with
  | Some id -> id
  | None ->
      let id = t.tag ^ "/" ^ Bp_sim.Addr.to_string addr in
      Bp_crypto.Signer.add_identity t.keystore id;
      Bp_sim.Addr.Tbl.add t.identities addr id;
      id

let reply_tag t = t.tag ^ ".reply"

let make ~nodes ~keystore ?(tag = "pbft") ?(batch_max = 64)
    ?(batch_min_fill = 1) ?(batch_hold = Bp_sim.Time.zero)
    ?(request_timeout = Bp_sim.Time.of_ms 500.0) ?(checkpoint_interval = 32)
    ?(watermark_window = 128) ?(max_in_flight = 8) () =
  let n = Array.length nodes in
  if n < 4 || (n - 1) mod 3 <> 0 then
    invalid_arg "Pbft.Config.make: need n = 3f+1 >= 4 nodes";
  if batch_max <= 0 then invalid_arg "Pbft.Config.make: batch_max must be positive";
  if batch_min_fill <= 0 || batch_min_fill > batch_max then
    (* A min fill above batch_max could never be satisfied: the hold
       timer would fire on every batch, degrading every cut to the
       timeout path. Zero or negative would disable batching entirely. *)
    invalid_arg "Pbft.Config.make: batch_min_fill must be in [1, batch_max]";
  if Bp_sim.Time.(batch_hold < Bp_sim.Time.zero) then
    invalid_arg "Pbft.Config.make: batch_hold must be non-negative";
  if batch_min_fill > 1 && Bp_sim.Time.(batch_hold <= Bp_sim.Time.zero) then
    (* min-fill without a hold bound would wedge the tail: the last
       requests of a workload may never reach the fill threshold. *)
    invalid_arg "Pbft.Config.make: batch_min_fill > 1 requires batch_hold > 0";
  if checkpoint_interval <= 0 then
    (* A zero interval would silently disable checkpointing — and with it
       watermark advancement and garbage collection. *)
    invalid_arg "Pbft.Config.make: checkpoint_interval must be positive";
  if watermark_window <= 0 then
    invalid_arg "Pbft.Config.make: watermark_window must be positive";
  if max_in_flight <= 0 then
    invalid_arg "Pbft.Config.make: max_in_flight must be positive";
  if checkpoint_interval > watermark_window then
    (* The window must span at least one checkpoint, or the protocol
       wedges: no stable checkpoint can form inside the window, so the
       watermarks never advance once the window fills. *)
    invalid_arg
      "Pbft.Config.make: checkpoint_interval must not exceed watermark_window";
  let t =
    {
      nodes;
      f = (n - 1) / 3;
      keystore;
      tag;
      batch_max;
      batch_min_fill;
      batch_hold;
      request_timeout;
      checkpoint_interval;
      watermark_window;
      (* The pipeline can never usefully exceed the watermark window: slots
         beyond it are rejected by every replica's in_window check. *)
      max_in_flight = Int.min max_in_flight watermark_window;
      identities = Bp_sim.Addr.Tbl.create 16;
    }
  in
  Array.iter (fun a -> ignore (identity t a)) nodes;
  t

let n t = Array.length t.nodes
let quorum t = (2 * t.f) + 1
let primary_of_view t view = view mod n t

