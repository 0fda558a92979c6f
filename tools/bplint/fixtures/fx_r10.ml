(* R10-accept fixtures: in a structure shaped like App.S (it binds
   verify, apply and digest), a verify arm or case whose body is the
   literal [true] is flagged, and so is one in any [verifier]; an
   allow-attributed [true], a judged arm and a verify outside that shape
   are not. *)

type record = Step of int | Recv of string | Marker

module App_shaped = struct
  let verify limit = function
    | Step n -> n < limit
    (* BAD: a received record accepted without judging. *)
    | Recv _ -> true
    (* BAD: a guard does not make the body a verdict. *)
    | Marker when limit > 0 -> true
    (* Site-level escape hatch, with its reason. *)
    | Marker -> (true [@bplint.allow "R10-accept"]) (* applies nothing *)

  let apply _ _ = ()
  let digest _ = ""
end

(* BAD: a verifier is judged wherever it is bound, and a one-case
   function accepts as surely as a match arm. *)
let verifier _ = true

(* OK: not App.S-shaped (no apply or digest), so not a verification
   routine of an app. *)
module Signature_check = struct
  let verify = function Step 0 -> true | _ -> false
end
