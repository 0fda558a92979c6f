(** Reference frame assembly: the eager paths of [Bp_net.Transport]
    from before frames became virtual.

    [raw] seals a packet the way every unicast send and ack used to:
    [Frame.seal_with] over the packet encoding, on a scratch encoder.
    [broadcast] assembles a broadcast destination's frame the way
    [Transport.broadcast] used to: the (tag, payload) suffix encoded
    once, its CRC computed at once, and the frame stitched with
    [Frame.seal_with_suffix]. Retained as the test suite's model for the
    production frames, which are accounted by length and built on
    demand: their bytes must equal these, and their accounted length
    must be these strings' length. Not for production use. *)

val raw : Bp_net.Transport.packet -> string

val broadcast : tag:string -> payload:string -> seq:int option -> string
(** [~seq:(Some s)]: the frame of a reliable broadcast sent as segment
    [s]; [~seq:None]: the frame of an unreliable broadcast. *)
