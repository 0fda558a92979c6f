(** Deployment topology: datacenters, the wide-area RTT matrix, intra-DC
    latency and per-NIC bandwidth. The default instance is the paper's
    Table I (four AWS regions). *)

type t

val make :
  names:string array ->
  rtt_ms:float array array ->
  ?intra_rtt_ms:float ->
  ?bandwidth_mbps:float ->
  unit ->
  t
(** [rtt_ms] must be square, symmetric, zero on the diagonal.
    [intra_rtt_ms] defaults to 0.5 ms; [bandwidth_mbps] (MB/s) to 640,
    the iperf measurement reported in §VIII. *)

val aws_paper : t
(** Table I: California, Oregon, Virginia, Ireland. *)

val dc_california : int
val dc_oregon : int
val dc_virginia : int
val dc_ireland : int

val tiled : ?metro_rtt_ms:float -> t -> sites:int -> t
(** [tiled base ~sites] extends [base] to [sites] datacenters by tiling
    its regions: site [i] lives in region [i mod k] (k = base size), two
    distinct sites of the same region are [metro_rtt_ms] apart (default
    4 ms — metro-area peering), and cross-region pairs keep the base
    matrix's RTT. The first k sites are exactly the base topology, so a
    deployment confined to them is unchanged. This is how scale-out
    worlds get more than the paper's four sites (one per Blockplane
    unit) at fixed per-unit resources.
    @raise Invalid_argument on a non-positive [sites] or [metro_rtt_ms]. *)

val num_dcs : t -> int
val name : t -> int -> string
val dc_of_name : t -> string -> int option

val rtt : t -> int -> int -> Time.t
(** Round-trip between two datacenters; intra-DC RTT when equal. *)

val one_way : t -> int -> int -> Time.t
(** Half the RTT. *)

val transfer_time : t -> int -> Time.t
(** Serialization delay for that many bytes on one NIC. *)

val neighbors_by_rtt : t -> int -> int list
(** Other datacenters sorted by increasing RTT from the given one. *)

val closest_majority_rtt : t -> int -> Time.t
(** RTT from a datacenter to the farthest member of its closest majority
    (itself included): with [n] sites this is the RTT to the
    [ceil(n/2)]-th closest site — the floor latency of a Paxos round. *)
