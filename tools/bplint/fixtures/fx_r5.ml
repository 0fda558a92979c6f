(* Fixture: R5-rawverify. Signature verification outside lib/crypto must
   go through Verify_cache; a bare Signer.verify is flagged. *)

let raw keystore ~signer ~msg ~signature =
  Bp_crypto.Signer.verify keystore ~signer ~msg ~signature

(* The sanctioned spelling must NOT be flagged. *)
let cached cache ~signer ~msg ~signature =
  Bp_crypto.Verify_cache.verify cache ~signer ~msg ~signature

(* Site-level escape hatch: suppressed by the allow attribute. *)
let excused keystore ~signer ~msg ~signature =
  (Bp_crypto.Signer.verify keystore ~signer ~msg ~signature
  [@bplint.allow "R5-rawverify"])
