module type S = sig
  type state

  val create : participant:int -> n_participants:int -> state
  val verify : state -> Record.t -> bool
  val apply : state -> hash:(string -> string) -> Record.t -> unit
  val digest : state -> string
  val describe : state -> string
end

type instance = Instance : (module S with type state = 's) * 's -> instance

let make (module A : S) ~participant ~n_participants =
  Instance ((module A), A.create ~participant ~n_participants)

let verify (Instance ((module A), state)) record = A.verify state record
let apply (Instance ((module A), state)) ~hash record = A.apply state ~hash record
let digest (Instance ((module A), state)) = A.digest state
let describe (Instance ((module A), state)) = A.describe state

module Null = struct
  type state = string ref

  let create ~participant:_ ~n_participants:_ = ref (Bp_crypto.Sha256.digest "null-app")

  (* No protocol, so nothing to judge: it measures the middleware alone. *)
  let verify _ _ = (true [@bplint.allow "R10-accept"])

  (* Folds the record's digest, not its bytes: on a live node [hash]
     finds the digest the signing path already memoized, so a large op is
     not hashed again here. *)
  let apply state ~hash record =
    state := Bp_crypto.Sha256.digest_list [ !state; hash (Record.encode record) ]

  let digest state = !state
  let describe state = "null-app:" ^ Bp_util.Hex.encode (String.sub !state 0 4)
end
