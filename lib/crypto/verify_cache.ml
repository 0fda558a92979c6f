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

   Determinism: no wall-clock, no randomness. Both tables are FIFO rings
   (insertion order), the verdict table bounded by entries and the digest
   memo by bytes, so behaviour depends only on the call sequence. *)

(* ---------- counters ---------- *)

(* Process-global, plain [int] refs: exact under the deterministic
   single-domain runs that reports are generated from ([-j 1]); with
   [-j] fanning experiment tasks across domains concurrent increments can
   drop, which only under-counts diagnostics and never affects results.
   They configure nothing: their reader is the benchmark probe
   ([bench/e2e/probe.ml]), hence the R8 allow on each until a per-node
   metrics registry replaces them. *)

type counters = {
  verify_hits : int;
  verify_misses : int;
  digest_hits : int;
  digest_misses : int;
}

let c_verify_hits = ref 0 [@@bplint.allow "R8-harnessglobal"]
let c_verify_misses = ref 0 [@@bplint.allow "R8-harnessglobal"]
let c_digest_hits = ref 0 [@@bplint.allow "R8-harnessglobal"]
let c_digest_misses = ref 0 [@@bplint.allow "R8-harnessglobal"]

let counters () =
  {
    verify_hits = !c_verify_hits;
    verify_misses = !c_verify_misses;
    digest_hits = !c_digest_hits;
    digest_misses = !c_digest_misses;
  }

let reset_counters () =
  c_verify_hits := 0;
  c_verify_misses := 0;
  c_digest_hits := 0;
  c_digest_misses := 0

(* ---------- one FIFO ring behind an open-addressed index ----------

   Both tables keep their entries in flat arrays, one per field, indexed
   by slot. Slots fill in FIFO ring order: [head] is the oldest entry and
   the next to be evicted. An open-addressed linear-probing index, a
   power of two at least twice the slot count (so never more than half
   full), maps a key's hash to its slot. The ring owns the hash column
   and the index; each table owns its payload columns and regrows them
   with [regrow] when the ring grows. The slot arrays start small and
   double up to [limit], the index with them, so a short-lived cache
   never pays for its full size. The verdict table bounds the ring by
   entry count ([limit]); the digest memo has no entry limit and evicts
   by its byte budget through [pop]. *)

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

module Ring = struct
  type t = {
    limit : int; (* most slots the ring may ever have *)
    mutable hashes : int array; (* per slot *)
    mutable index : int array; (* a slot per cell, or -1 *)
    mutable head : int;
    mutable count : int;
  }

  let index_size slots = pow2_at_least (2 * slots) 1

  (* A zero-limit ring has no slots and a one-cell index that stays
     empty, so every probe misses at once. *)
  let create ~limit =
    let slots = min limit 64 in
    {
      limit;
      hashes = Array.make slots 0;
      index = Array.make (index_size slots) (-1);
      head = 0;
      count = 0;
    }

  let count r = r.count
  let full r = r.count = Array.length r.hashes

  (* The slot of the entry with hash [h] for which [matches tbl k1 k2
     slot] holds, or -1. [matches] is a closed top-level function and the
     key comes in two plain arguments, so a probe allocates nothing. *)
  let rec probe r matches tbl k1 k2 h i =
    let s = r.index.(i) in
    if s < 0 then -1
    else if r.hashes.(s) = h && matches tbl k1 k2 s then s
    else probe r matches tbl k1 k2 h ((i + 1) land (Array.length r.index - 1))

  let find r matches tbl k1 k2 h =
    probe r matches tbl k1 k2 h (h land (Array.length r.index - 1))

  let rec link r slot i =
    if r.index.(i) < 0 then r.index.(i) <- slot
    else link r slot ((i + 1) land (Array.length r.index - 1))

  (* Backward-shift deletion: refill the hole at [hole] with the first
     later entry in the run whose home does not lie strictly between the
     hole and that entry, then repeat from the entry's old cell, until the
     run ends. No tombstones, so probe runs never lengthen with churn. *)
  let rec close_hole r hole j =
    let mask = Array.length r.index - 1 in
    let s = r.index.(j) in
    if s < 0 then r.index.(hole) <- -1
    else if (j - (r.hashes.(s) land mask)) land mask >= (j - hole) land mask
    then begin
      r.index.(hole) <- s;
      close_hole r j ((j + 1) land mask)
    end
    else close_hole r hole ((j + 1) land mask)

  let rec unlink r slot i =
    let mask = Array.length r.index - 1 in
    if r.index.(i) = slot then close_hole r i ((i + 1) land mask)
    else unlink r slot ((i + 1) land mask)

  (* A new entry with hash [h] at the tail of the ring: its slot, already
     linked into the index. The caller makes room first ([full] is
     false). *)
  let push r h =
    let len = Array.length r.hashes and tail = r.head + r.count in
    let slot = if tail >= len then tail - len else tail in
    r.hashes.(slot) <- h;
    link r slot (h land (Array.length r.index - 1));
    r.count <- r.count + 1;
    slot

  (* Unlink the oldest entry and return its slot, for its table to
     clear or reuse. The ring must not be empty. *)
  let pop r =
    let slot = r.head in
    unlink r slot (r.hashes.(slot) land (Array.length r.index - 1));
    r.head <- (if slot + 1 = Array.length r.hashes then 0 else slot + 1);
    r.count <- r.count - 1;
    slot

  (* Growing doubles the slot count (up to [limit]) and lays the entries
     out oldest first from slot 0. A table first [regrow]s each of its
     columns, then calls [grow], which does the same to the hash column
     and rebuilds the index at its new size. *)
  let regrow r column fill =
    let len = Array.length column in
    let grown = Array.make (min r.limit (2 * len)) fill in
    let first = min r.count (len - r.head) in
    Array.blit column r.head grown 0 first;
    Array.blit column 0 grown first (r.count - first);
    grown

  let grow r =
    r.hashes <- regrow r r.hashes 0;
    r.head <- 0;
    r.index <- Array.make (index_size (Array.length r.hashes)) (-1);
    for slot = 0 to r.count - 1 do
      link r slot (r.hashes.(slot) land (Array.length r.index - 1))
    done
end

(* ---------- probe hashes from word loads ----------

   Both keys are hashed from eight-byte word loads, with no C call and no
   allocation: the verdict key from its signature (a MAC tag or a
   hash-based signature, so its bytes are already well mixed), the digest
   memo's content from its length plus its first and last 64 bytes. *)

let word s i = Int64.to_int (String.get_int64_le s i)
let mix h w = (h lxor w) * 0x2127599bf4325c37
let finish h = h lxor (h lsr 32)

(* The signature's length, its first three words (fewer if it is
   shorter) and its last word: all of a 32-byte HMAC tag. *)
let signature_hash s =
  let n = String.length s in
  if n < 8 then Hashtbl.hash s
  else
    let h = mix (mix n (word s 0)) (word s (n - 8)) in
    let h = if n >= 16 then mix h (word s 8) else h in
    finish (if n >= 32 then mix h (word s 16) else h)

let rec edge_words s tail h i =
  if i = 64 then h
  else edge_words s tail (mix (mix h (word s i)) (word s (tail + i))) (i + 8)

(* Never reads the middle: content that differs only there shares a
   fingerprint, and the full comparison in the probe tells it apart.
   Only called on strings of at least [digest_memo_min] bytes. *)
let fingerprint s =
  let n = String.length s in
  finish (edge_words s (n - 64) n 0)

(* ---------- the cache ---------- *)

type t = {
  keystore : Signer.t;
  capacity : int;
  (* Verdict table, keyed by (signer, signature): for honest traffic the
     signature alone pins the message, and the stored message is compared
     on every probe, so colliding keys (e.g. the all-zero forged
     signature under several bodies) just overwrite each other — never
     cross-talk. Hashing the message instead would cost as much as the
     verify being saved. *)
  verdicts : Ring.t;
  mutable v_signer : string array;
  mutable v_signature : string array;
  mutable v_msg : string array;
  mutable v_gen : int array;
  mutable v_verdict : bool array;
  (* Digest memo: content -> SHA-256 digest, keyed by [fingerprint].
     Bounded by bytes (not entries) because the keys it pins alive can be
     megabytes each. *)
  digests : Ring.t;
  mutable d_content : string array;
  mutable d_digest : string array;
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
  let capacity = max 0 capacity in
  let verdicts = Ring.create ~limit:capacity in
  let digests = Ring.create ~limit:(if digest_budget > 0 then max_int else 0) in
  let slots r = Array.length r.Ring.hashes in
  {
    keystore;
    capacity;
    verdicts;
    v_signer = Array.make (slots verdicts) "";
    v_signature = Array.make (slots verdicts) "";
    v_msg = Array.make (slots verdicts) "";
    v_gen = Array.make (slots verdicts) 0;
    v_verdict = Array.make (slots verdicts) false;
    digests;
    d_content = Array.make (slots digests) "";
    d_digest = Array.make (slots digests) "";
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
  }

(* ---------- verdicts ---------- *)

let verdict_matches t signer signature s =
  String.equal t.v_signature.(s) signature && String.equal t.v_signer.(s) signer

let lookup t ~signer ~signature h =
  Ring.find t.verdicts verdict_matches t signer signature h

let grow_verdicts t =
  let r = t.verdicts in
  t.v_signer <- Ring.regrow r t.v_signer "";
  t.v_signature <- Ring.regrow r t.v_signature "";
  t.v_msg <- Ring.regrow r t.v_msg "";
  t.v_gen <- Ring.regrow r t.v_gen 0;
  t.v_verdict <- Ring.regrow r t.v_verdict false;
  Ring.grow r

(* Write a new entry at the tail, evicting the oldest once the ring holds
   [capacity] entries (the popped slot is the one [push] reuses). No-op
   at capacity 0. *)
let insert t ~signer ~signature h ~msg ~gen verdict =
  if t.capacity > 0 then begin
    let r = t.verdicts in
    if Ring.full r then
      if Ring.count r = t.capacity then ignore (Ring.pop r) else grow_verdicts t;
    let slot = Ring.push r h in
    t.v_signer.(slot) <- signer;
    t.v_signature.(slot) <- signature;
    t.v_msg.(slot) <- msg;
    t.v_gen.(slot) <- gen;
    t.v_verdict.(slot) <- verdict
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

let current t slot ~gen ~msg =
  slot >= 0
  && t.v_gen.(slot) = gen
  && (t.v_msg.(slot) == msg || String.equal t.v_msg.(slot) msg)

(* Store a verdict for the key. A [found] slot (stale generation, or a key
   collision with a different message) is refreshed in place, with no
   ring movement. *)
let store t ~signer ~signature h found ~msg ~gen verdict =
  if found >= 0 then begin
    t.v_msg.(found) <- msg;
    t.v_gen.(found) <- gen;
    t.v_verdict.(found) <- verdict
  end
  else insert t ~signer ~signature h ~msg ~gen verdict

let probe t ~signer ~msg ~signature =
  let h = signature_hash signature in
  let slot = lookup t ~signer ~signature h in
  if current t slot ~gen:(Signer.generation t.keystore) ~msg then begin
    hit t;
    (* Both options are constants: a hit allocates nothing. *)
    if t.v_verdict.(slot) then Some true else Some false
  end
  else begin
    miss t;
    None
  end

let record t ~signer ~msg ~signature ~verdict =
  let h = signature_hash signature in
  store t ~signer ~signature h
    (lookup t ~signer ~signature h)
    ~msg ~gen:(Signer.generation t.keystore) verdict

let verify t ~signer ~msg ~signature =
  let gen = Signer.generation t.keystore in
  let h = signature_hash signature in
  let slot = lookup t ~signer ~signature h in
  if current t slot ~gen ~msg then begin
    hit t;
    t.v_verdict.(slot)
  end
  else begin
    miss t;
    let v = Signer.verify t.keystore ~signer ~msg ~signature in
    store t ~signer ~signature h slot ~msg ~gen v;
    v
  end

let sign t ~signer msg =
  let signature = Signer.sign t.keystore ~signer msg in
  (* Recorded after signing, so the stamp is the post-rollover generation
     when a hash-based pool rolls over inside [sign]. The seeded [true] is
     exact: HMAC verify recomputes the same tag, and a Merkle signature
     verifies against the root that [sign] just used. *)
  record t ~signer ~msg ~signature ~verdict:true;
  signature

(* ---------- content-addressed digest memo ---------- *)

(* Memoizing a digest only pays above a minimum size: below it, hashing
   the bytes again costs about as much as the probe, and unique small
   strings (transmission statements, tiny operations) would fill the
   table with never-hit entries the GC must keep tracing until the byte
   budget finally evicts them. *)
let digest_memo_min = 256

let content_matches t s () slot =
  let k = t.d_content.(slot) in
  k == s || String.equal k s

let find_digest t s fp = Ring.find t.digests content_matches t s () fp

let grow_digests t =
  let r = t.digests in
  t.d_content <- Ring.regrow r t.d_content "";
  t.d_digest <- Ring.regrow r t.d_digest "";
  Ring.grow r

(* Evict oldest first while over budget. An entry larger than the whole
   budget goes too, right after its own insertion. Evicted slots are
   cleared so they pin no content. *)
let rec evict_digests t =
  if t.dbytes > t.digest_budget && Ring.count t.digests > 0 then begin
    let slot = Ring.pop t.digests in
    t.dbytes <- t.dbytes - String.length t.d_content.(slot);
    t.d_content.(slot) <- "";
    t.d_digest.(slot) <- "";
    evict_digests t
  end

let remember t s fp d =
  if Ring.full t.digests then grow_digests t;
  let slot = Ring.push t.digests fp in
  t.d_content.(slot) <- s;
  t.d_digest.(slot) <- d;
  t.dbytes <- t.dbytes + String.length s;
  evict_digests t

let digest_miss t =
  incr c_digest_misses;
  t.i_digest_misses <- t.i_digest_misses + 1

(* A zero budget keeps nothing, so it skips the memo outright: a counted
   miss and a direct hash, with no insertion to evict again at once. *)
let digest t s =
  if String.length s < digest_memo_min then Sha256.digest s
  else if t.digest_budget <= 0 then begin
    digest_miss t;
    Sha256.digest s
  end
  else begin
    let fp = fingerprint s in
    let slot = find_digest t s fp in
    if slot >= 0 then begin
      incr c_digest_hits;
      t.i_digest_hits <- t.i_digest_hits + 1;
      t.d_digest.(slot)
    end
    else begin
      digest_miss t;
      let d = Sha256.digest s in
      remember t s fp d;
      d
    end
  end

(* Read-only twin of [digest], for content the node has already digested
   on its signing path (a committed op reaching the log and the app). It
   neither inserts nor counts, so reusing a digest changes no statistic. *)
let lookup_digest t s =
  if t.digest_budget <= 0 || String.length s < digest_memo_min then
    Sha256.digest s
  else
    let slot = find_digest t s (fingerprint s) in
    if slot >= 0 then t.d_digest.(slot) else Sha256.digest s
