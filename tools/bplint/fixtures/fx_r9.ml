(* R9-external fixtures: every [external] outside lib/crypto/native.ml is
   flagged, at module level or nested, whether it names a C stub or a
   compiler primitive. *)

(* BAD: a top-level external. *)
external bad_identity : 'a -> 'a = "%identity"

(* BAD: nesting does not hide one. *)
module Nested = struct
  external bad_nested : int -> int = "%identity"
end

(* Site-level escape hatch: suppressed by the allow attribute. *)
external excused : 'a -> 'a = "%identity" [@@bplint.allow "R9-external"]

(* OK: an ordinary binding, even one that calls an external. *)
let good x = bad_identity (Nested.bad_nested x)
