(* Content-addressed verification memoization.

   A cache instance is strictly per-node: it wraps that node's view of the
   shared keystore and only ever memoizes work the node has already done
   (or, via [sign], work whose outcome the signer knows by construction).
   Nothing here is an oracle — a cache created with [~capacity:0
   ~digest_budget:0] keeps nothing, so every call is the exact uncached
   computation, and the differential tests pin that the two agree bit for
   bit.

   Soundness invariant: a cached verdict never outlives the keystore state
   that produced it. Every memoized verdict is stamped with
   [Signer.generation] at computation time; any keystore change (identity
   provisioning, hash-based key-pool rollover) bumps the generation and
   silently invalidates every older entry.

   Determinism: no wall-clock, no randomness. The verdict table evicts
   with a FIFO ring (insertion order), the digest table with a FIFO byte
   budget, so behaviour depends only on the call sequence. *)

(* ---------- counters ---------- *)

(* Process-global, plain [int] refs: exact under the deterministic
   single-domain runs that reports are generated from ([-j 1]); with the
   experiment pool fanning work across domains concurrent increments can
   drop, which only under-counts diagnostics and never affects results.
   They configure nothing: their reader is the benchmark probe
   ([bench/e2e/probe.ml]), hence the R8 allow on each until a per-node
   metrics registry replaces them. *)

type counters = {
  verify_hits : int;
  verify_misses : int;
  digest_hits : int;
  digest_misses : int;
  memo_hits : int;
  memo_misses : int;
}

let c_verify_hits = ref 0 [@@bplint.allow "R8-harnessglobal"]
let c_verify_misses = ref 0 [@@bplint.allow "R8-harnessglobal"]
let c_digest_hits = ref 0 [@@bplint.allow "R8-harnessglobal"]
let c_digest_misses = ref 0 [@@bplint.allow "R8-harnessglobal"]
let c_memo_hits = ref 0 [@@bplint.allow "R8-harnessglobal"]
let c_memo_misses = ref 0 [@@bplint.allow "R8-harnessglobal"]

let counters () =
  {
    verify_hits = !c_verify_hits;
    verify_misses = !c_verify_misses;
    digest_hits = !c_digest_hits;
    digest_misses = !c_digest_misses;
    memo_hits = !c_memo_hits;
    memo_misses = !c_memo_misses;
  }

let reset_counters () =
  c_verify_hits := 0;
  c_verify_misses := 0;
  c_digest_hits := 0;
  c_digest_misses := 0;
  c_memo_hits := 0;
  c_memo_misses := 0

(* ---------- the cache ---------- *)

(* Monomorphic tables on the per-message path: probes compare keys with
   [String.equal]/[Int.equal] rather than polymorphic compare. Hashing is
   [Hashtbl.hash], exactly what the polymorphic table used, so the bucket
   layout is unchanged. *)
module Verdict_tbl = Hashtbl.Make (struct
  type t = string * string

  let equal (s1, g1) (s2, g2) = String.equal s1 s2 && String.equal g1 g2
  let hash = Hashtbl.hash
end)

module Digest_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

type entry = {
  mutable e_msg : string;
  mutable e_gen : int;
  mutable e_verdict : bool;
}

type t = {
  keystore : Signer.t;
  (* Keyed by (signer, signature): for honest traffic the signature alone
     pins the message, and the stored message is compared on every probe,
     so colliding keys (e.g. the all-zero forged signature under several
     bodies) just overwrite each other — never cross-talk. Hashing the
     message instead would cost as much as the verify being saved. *)
  verdicts : entry Verdict_tbl.t;
  ring : (string * string) option array;
      (* FIFO eviction; slots = table keys; empty = keep nothing *)
  mutable cursor : int;
  (* Digest memo: cheap fingerprint -> bucket of (content, digest).
     Bounded by bytes (not entries) because the keys it pins alive can be
     megabytes each. *)
  digests : (string * string) list Digest_tbl.t;
  dqueue : (int * string) Queue.t; (* insertion order, for eviction *)
  mutable dbytes : int;
  digest_budget : int;
  (* Per-instance (= per-node) counters, alongside the process-global
     refs: a multi-node world shares the globals, so only these can say
     what one node's hit rate actually was. *)
  mutable i_verify_hits : int;
  mutable i_verify_misses : int;
  mutable i_digest_hits : int;
  mutable i_digest_misses : int;
}

(* The digest memo's FIFO window only has to cover content still in
   flight (a few pipelined batches); a huge budget would just pin dead
   operations on the major heap for the GC to trace. *)
let create ?(capacity = 4096) ?(digest_budget = 8 * 1024 * 1024) keystore =
  {
    keystore;
    verdicts = Verdict_tbl.create (2 * capacity);
    ring = Array.make (max 0 capacity) None;
    cursor = 0;
    digests = Digest_tbl.create 256;
    dqueue = Queue.create ();
    dbytes = 0;
    digest_budget;
    i_verify_hits = 0;
    i_verify_misses = 0;
    i_digest_hits = 0;
    i_digest_misses = 0;
  }

let keystore t = t.keystore

let instance_counters t =
  {
    verify_hits = t.i_verify_hits;
    verify_misses = t.i_verify_misses;
    digest_hits = t.i_digest_hits;
    digest_misses = t.i_digest_misses;
    memo_hits = 0;
    memo_misses = 0;
  }

let insert t key entry =
  if Array.length t.ring > 0 then begin
    (match t.ring.(t.cursor) with
    | Some old -> Verdict_tbl.remove t.verdicts old
    | None -> ());
    t.ring.(t.cursor) <- Some key;
    Verdict_tbl.replace t.verdicts key entry;
    t.cursor <- (t.cursor + 1) mod Array.length t.ring
  end

let hit t =
  incr c_verify_hits;
  t.i_verify_hits <- t.i_verify_hits + 1

let miss t =
  incr c_verify_misses;
  t.i_verify_misses <- t.i_verify_misses + 1

(* Cache-partitioning primitives for batched verification: a batch
   [probe]s every job at submit and [record]s the computed verdicts at
   await. The counter accounting matches [verify] exactly — a probe
   counts the hit/miss, a record counts nothing. *)

let current e ~gen ~msg =
  e.e_gen = gen && (e.e_msg == msg || String.equal e.e_msg msg)

(* Store a verdict under [key]. A [found] entry (stale generation, or a
   key collision with a different message) is refreshed in place, with no
   ring movement. *)
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
      hit t;
      Some e.e_verdict
  | Some _ | None ->
      miss t;
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
      hit t;
      e.e_verdict
  | found ->
      miss t;
      let v = Signer.verify t.keystore ~signer ~msg ~signature in
      store t key found ~msg ~gen v;
      v

let sign t ~signer msg =
  let signature = Signer.sign t.keystore ~signer msg in
  (* Recorded after signing, so the stamp is the post-rollover generation
     when a hash-based pool rolls over inside [sign]. The seeded [true] is
     exact: HMAC verify recomputes the same tag, and a Merkle signature
     verifies against the root that [sign] just used. *)
  record t ~signer ~msg ~signature ~verdict:true;
  signature

(* ---------- content-addressed digest memo ---------- *)

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

let rec evict_digests t =
  if t.dbytes > t.digest_budget && not (Queue.is_empty t.dqueue) then begin
    let fp, key = Queue.pop t.dqueue in
    (match Digest_tbl.find_opt t.digests fp with
    | None -> ()
    | Some bucket -> (
        match List.filter (fun (k, _) -> not (k == key)) bucket with
        | [] -> Digest_tbl.remove t.digests fp
        | rest -> Digest_tbl.replace t.digests fp rest));
    t.dbytes <- t.dbytes - String.length key;
    evict_digests t
  end

(* Memoizing a digest only pays above a minimum size: below it, hashing
   the bytes again costs about as much as the probe, and unique small
   strings (transmission statements, tiny operations) would fill the
   table with never-hit entries the GC must keep tracing until the byte
   budget finally evicts them. *)
let digest_memo_min = 256

let memoized bucket s =
  List.find_opt (fun (k, _) -> k == s || String.equal k s) bucket

let digest_miss t =
  incr c_digest_misses;
  t.i_digest_misses <- t.i_digest_misses + 1

(* A zero budget keeps nothing, so it skips the table outright: a counted
   miss and a direct hash, with no insertion to evict again at once. *)
let digest t s =
  if String.length s < digest_memo_min then Sha256.digest s
  else if t.digest_budget <= 0 then begin
    digest_miss t;
    Sha256.digest s
  end
  else begin
    let fp = fingerprint s in
    let bucket =
      match Digest_tbl.find_opt t.digests fp with Some b -> b | None -> []
    in
    match memoized bucket s with
    | Some (_, d) ->
        incr c_digest_hits;
        t.i_digest_hits <- t.i_digest_hits + 1;
        d
    | None ->
        digest_miss t;
        let d = Sha256.digest s in
        Digest_tbl.replace t.digests fp ((s, d) :: bucket);
        Queue.push (fp, s) t.dqueue;
        t.dbytes <- t.dbytes + String.length s;
        evict_digests t;
        d
  end

(* Read-only twin of [digest], for content the node has already digested
   on its signing path (a committed op reaching the log and the app). It
   neither inserts nor counts, so reusing a digest changes no statistic. *)
let lookup_digest t s =
  if t.digest_budget <= 0 || String.length s < digest_memo_min then
    Sha256.digest s
  else
    match Digest_tbl.find_opt t.digests (fingerprint s) with
    | None -> Sha256.digest s
    | Some bucket -> (
        match memoized bucket s with
        | Some (_, d) -> d
        | None -> Sha256.digest s)

(* ---------- generic physical-identity memo ---------- *)

type 'a memo = { mutable entries : ('a * string) list; mcap : int }

let memo ?(capacity = 8) () = { entries = []; mcap = max 0 capacity }

let keeps_nothing t = Array.length t.ring = 0 && t.digest_budget <= 0

let memoize m key f =
  match List.assq_opt key m.entries with
  | Some v ->
      incr c_memo_hits;
      v
  | None ->
      incr c_memo_misses;
      let v = f () in
      if m.mcap > 0 then begin
        let kept =
          if List.length m.entries >= m.mcap then
            List.filteri (fun i _ -> i < m.mcap - 1) m.entries
          else m.entries
        in
        m.entries <- (key, v) :: kept
      end;
      v
