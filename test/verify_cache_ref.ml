(* Reference verdict cache, kept from the original implementation: a
   [Hashtbl] keyed by (signer, signature) with an option-array FIFO ring
   of its keys. [Bp_crypto.Verify_cache] is the production module (flat
   slot arrays behind an open-addressed index); this one exists only as
   the test suite's model of its hit/miss sequence. Do not optimize it. *)

open Bp_crypto

module Verdict_tbl = Hashtbl.Make (struct
  type t = string * string

  let equal (s1, g1) (s2, g2) = String.equal s1 s2 && String.equal g1 g2
  let hash = Hashtbl.hash
end)

type entry = {
  mutable e_msg : string;
  mutable e_gen : int;
  mutable e_verdict : bool;
}

type t = {
  keystore : Signer.t;
  verdicts : entry Verdict_tbl.t;
  ring : (string * string) option array;
      (* FIFO eviction; slots = table keys; empty = keep nothing *)
  mutable cursor : int;
  mutable hits : int;
  mutable misses : int;
}

let create ?(capacity = 4096) keystore =
  {
    keystore;
    verdicts = Verdict_tbl.create (2 * capacity);
    ring = Array.make (max 0 capacity) None;
    cursor = 0;
    hits = 0;
    misses = 0;
  }

let hits t = t.hits
let misses t = t.misses

let insert t key entry =
  if Array.length t.ring > 0 then begin
    (match t.ring.(t.cursor) with
    | Some old -> Verdict_tbl.remove t.verdicts old
    | None -> ());
    t.ring.(t.cursor) <- Some key;
    Verdict_tbl.replace t.verdicts key entry;
    t.cursor <- (t.cursor + 1) mod Array.length t.ring
  end

let current e ~gen ~msg =
  e.e_gen = gen && (e.e_msg == msg || String.equal e.e_msg msg)

let store t key found ~msg ~gen verdict =
  match found with
  | Some e ->
      e.e_msg <- msg;
      e.e_gen <- gen;
      e.e_verdict <- verdict
  | None -> insert t key { e_msg = msg; e_gen = gen; e_verdict = verdict }

let probe t ~signer ~msg ~signature =
  match Verdict_tbl.find_opt t.verdicts (signer, signature) with
  | Some e when current e ~gen:(Signer.generation t.keystore) ~msg ->
      t.hits <- t.hits + 1;
      Some e.e_verdict
  | Some _ | None ->
      t.misses <- t.misses + 1;
      None

let record t ~signer ~msg ~signature ~verdict =
  let key = (signer, signature) in
  store t key
    (Verdict_tbl.find_opt t.verdicts key)
    ~msg ~gen:(Signer.generation t.keystore) verdict

let verify t ~signer ~msg ~signature =
  let gen = Signer.generation t.keystore in
  let key = (signer, signature) in
  match Verdict_tbl.find_opt t.verdicts key with
  | Some e when current e ~gen ~msg ->
      t.hits <- t.hits + 1;
      e.e_verdict
  | found ->
      t.misses <- t.misses + 1;
      let v = Signer.verify t.keystore ~signer ~msg ~signature in
      store t key found ~msg ~gen v;
      v

let sign t ~signer msg =
  let signature = Signer.sign t.keystore ~signer msg in
  record t ~signer ~msg ~signature ~verdict:true;
  signature
