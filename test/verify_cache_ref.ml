(* Reference verdict cache and digest memo, kept from the original
   implementations: a [Hashtbl] keyed by (signer, signature) with an
   option-array FIFO ring of its keys, and a [Hashtbl] of CRC-fingerprint
   buckets with a [Queue] for byte-budget eviction.
   [Bp_crypto.Verify_cache] is the production module (both tables are flat
   slot arrays in FIFO ring order behind an open-addressed index); this
   one exists only as the test suite's model of its hit/miss sequences.
   Do not optimize it. *)

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

module Digest_memo = struct
  module Digest_tbl = Hashtbl.Make (struct
    type t = int

    let equal = Int.equal
    let hash = Hashtbl.hash
  end)

  type t = {
    digests : (string * string) list Digest_tbl.t;
    dqueue : (int * string) Queue.t; (* insertion order, for eviction *)
    mutable dbytes : int;
    budget : int;
    mutable hits : int;
    mutable misses : int;
  }

  let create ~budget =
    {
      digests = Digest_tbl.create 256;
      dqueue = Queue.create ();
      dbytes = 0;
      budget;
      hits = 0;
      misses = 0;
    }

  let hits t = t.hits
  let misses t = t.misses

  let fingerprint s =
    let len = String.length s in
    let b = Bytes.unsafe_of_string s in
    let head = Int32.to_int (Crc32.bytes b ~off:0 ~len:(min len 64)) land 0xffffffff in
    let tail_off = if len > 64 then len - 64 else 0 in
    let tail =
      if tail_off = 0 then head
      else Int32.to_int (Crc32.bytes b ~off:tail_off ~len:(len - tail_off)) land 0xffffffff
    in
    (head * 0x9e3779b1) lxor (tail * 0x85ebca77) lxor len

  let rec evict t =
    if t.dbytes > t.budget && not (Queue.is_empty t.dqueue) then begin
      let fp, key = Queue.pop t.dqueue in
      (match Digest_tbl.find_opt t.digests fp with
      | None -> ()
      | Some bucket -> (
          match List.filter (fun (k, _) -> not (k == key)) bucket with
          | [] -> Digest_tbl.remove t.digests fp
          | rest -> Digest_tbl.replace t.digests fp rest));
      t.dbytes <- t.dbytes - String.length key;
      evict t
    end

  let memo_min = 256

  let memoized bucket s =
    List.find_opt (fun (k, _) -> k == s || String.equal k s) bucket

  let digest t s =
    if String.length s < memo_min then Sha256.digest s
    else if t.budget <= 0 then begin
      t.misses <- t.misses + 1;
      Sha256.digest s
    end
    else begin
      let fp = fingerprint s in
      let bucket =
        match Digest_tbl.find_opt t.digests fp with Some b -> b | None -> []
      in
      match memoized bucket s with
      | Some (_, d) ->
          t.hits <- t.hits + 1;
          d
      | None ->
          t.misses <- t.misses + 1;
          let d = Sha256.digest s in
          Digest_tbl.replace t.digests fp ((s, d) :: bucket);
          Queue.push (fp, s) t.dqueue;
          t.dbytes <- t.dbytes + String.length s;
          evict t;
          d
    end

  let lookup_digest t s =
    if t.budget <= 0 || String.length s < memo_min then Sha256.digest s
    else
      match Digest_tbl.find_opt t.digests (fingerprint s) with
      | None -> Sha256.digest s
      | Some bucket -> (
          match memoized bucket s with
          | Some (_, d) -> d
          | None -> Sha256.digest s)
end
