(** Reference frame assembly: the eager path of [Bp_net.Transport] from
    before frames became virtual.

    [raw] seals a packet the way every send and ack used to:
    [Frame.seal_with] over the packet encoding, on a scratch encoder.
    Retained as the test suite's model for the production frames, which
    are accounted by length and built on demand, on the unicast and the
    broadcast path alike: their bytes must equal these, and their
    accounted length must be these strings' length. Not for production
    use. *)

val raw : Bp_net.Transport.packet -> string
