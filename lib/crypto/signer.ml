type scheme = [ `Hmac | `Hash_based ]

type hash_identity = {
  mutable current : Merkle_sig.signer;
  mutable roots : string list; (* all published roots, newest first *)
}

(* HMAC secrets are prepared once, at provisioning: every sign and verify
   then starts from the key's saved pad midstates. *)
type identity =
  | Hmac_secret of Hmac.prepared
  | Hash_keys of hash_identity

(* String-keyed with [String.equal] and the polymorphic table's own
   [Hashtbl.hash], so lookups skip polymorphic compare and the bucket
   layout is unchanged. *)
module Id_tbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

type t = {
  scheme : scheme;
  rng : Bp_util.Rng.t;
  identities : identity Id_tbl.t;
  mutable generation : int;
}

let create ?(scheme = `Hmac) rng =
  { scheme; rng; identities = Id_tbl.create 64; generation = 0 }

let scheme t = t.scheme

let generation t = t.generation

(* 64 one-time keys per pool; pools are rolled over transparently when
   exhausted, modelling key rotation. *)
let pool_height = 6

let add_identity t id =
  if not (Id_tbl.mem t.identities id) then begin
    let entry =
      match t.scheme with
      | `Hmac ->
          Hmac_secret (Hmac.prepare (Bytes.to_string (Bp_util.Rng.bytes t.rng 32)))
      | `Hash_based ->
          let signer, root = Merkle_sig.keygen ~height:pool_height t.rng in
          Hash_keys { current = signer; roots = [ root ] }
    in
    Id_tbl.add t.identities id entry;
    t.generation <- t.generation + 1
  end

let sign t ~signer msg =
  match Id_tbl.find t.identities signer with
  | Hmac_secret key -> Hmac.mac key msg
  | Hash_keys keys ->
      if Merkle_sig.capacity keys.current = 0 then begin
        let fresh, root = Merkle_sig.keygen ~height:pool_height t.rng in
        keys.current <- fresh;
        keys.roots <- root :: keys.roots;
        t.generation <- t.generation + 1
      end;
      Merkle_sig.encode (Merkle_sig.sign keys.current msg)

(* A hash-based signature verifies against any root the identity has
   published: signatures made before a pool rollover stay valid. *)
let verify_roots roots ~msg ~signature =
  match Merkle_sig.decode signature with
  | None -> false
  | Some s -> List.exists (fun root -> Merkle_sig.verify root msg s) roots

let verify t ~signer ~msg ~signature =
  match Id_tbl.find t.identities signer with
  | exception Not_found -> false
  | Hmac_secret key -> Hmac.verify_prepared key ~msg ~tag:signature
  | Hash_keys keys -> verify_roots keys.roots ~msg ~signature

