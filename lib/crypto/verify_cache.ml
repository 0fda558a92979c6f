(* Content-addressed verification memoization.

   A cache instance is strictly per-node: it wraps that node's view of the
   shared keystore and only ever memoizes work the node has already done
   (or, via [sign], work whose outcome the signer knows by construction,
   or, via a [sha_memo], this module's own hash of the very same string).
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
   memo by bytes, so behaviour depends only on the call sequence.

   Layout: the verdict table is built so the GC never sees it. A key of
   up to 512 bytes (signature, signer and message) is copied into one
   [Bytes] key store, with its stamp, and its slot keeps one int, so
   storing a verdict writes no pointer and pins no message; only larger
   keys are kept by pointer. Both tables share one index of 32-bit
   tagged cells in a [Bytes], where a missing probe reads nothing else
   and an eviction writes nothing. Copies and comparisons of keys are
   word loads and stores, with no C call. *)

(* ---------- counters ---------- *)

(* Process-global, plain [int] refs: exact under the deterministic
   single-domain runs that reports are generated from ([-j 1]); with
   [-j] fanning experiment tasks across domains concurrent increments can
   drop, which only under-counts diagnostics and never affects results.
   They configure nothing: their reader is the benchmark probe
   ([bench/e2e/probe.ml]), hence the R8 allow on each until a per-node
   metrics registry replaces them. The last two count the receive paths'
   batches ([verify_batch]) and the jobs across them. *)

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
let c_batches = ref 0 [@@bplint.allow "R8-harnessglobal"]
let c_batch_jobs = ref 0 [@@bplint.allow "R8-harnessglobal"]

let counters () =
  {
    verify_hits = !c_verify_hits;
    verify_misses = !c_verify_misses;
    digest_hits = !c_digest_hits;
    digest_misses = !c_digest_misses;
  }

type batch_counters = { batches : int; jobs_submitted : int }

let batch_counters () =
  { batches = !c_batches; jobs_submitted = !c_batch_jobs }

let reset_counters () =
  c_verify_hits := 0;
  c_verify_misses := 0;
  c_digest_hits := 0;
  c_digest_misses := 0;
  c_batches := 0;
  c_batch_jobs := 0

(* ---------- one FIFO ring behind an open-addressed index ----------

   Both tables keep their entries in flat arrays, one per field, indexed
   by slot. Slots fill in FIFO ring order: [head] is the oldest entry and
   the next to be evicted. An open-addressed linear-probing index, a
   power of two at least twice the slot count, maps a key's hash to its
   slot. Its cells are 32-bit words in one [Bytes], which the GC never
   scans, half the size of an [int array]. Each cell is tagged: it holds
   the slot in its low bits and the hash's bits above them (up to bit
   30; an empty cell is -1), so a probe compares a candidate's key only
   when its tag matches, and a probe that misses reads nothing but the
   index.

   Eviction leaves the index alone. A popped slot's cell stays behind,
   stale, and a probe that meets it either fails the tag or compares its
   key against whatever the slot holds now: the verdict table reuses a
   popped slot at once, and the digest memo's cleared slots never match
   memo-sized content. So a stale cell costs at most a key comparison,
   and a probe still returns exactly the live entry with its key. Stale
   cells are purged by rebuilding the index from the live entries (their
   hashes are the ring's one other column) whenever a push would fill
   more than three quarters of it, so every probe run still ends at an
   empty cell; at a full verdict table that is once every 2,049 pushes.
   No eviction touches a random cell, and the rebuild walks the index
   in order.

   Each table owns its payload columns and regrows them with [regrow]
   when the ring grows. The slot arrays start small and double up to
   [limit], the index with them, so a short-lived cache never pays for
   its full size. The verdict table bounds the ring by entry count
   ([limit]); the digest memo has no entry limit and evicts by its byte
   budget through [pop]. *)

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

module Ring = struct
  type t = {
    limit : int; (* most slots the ring may ever have *)
    mutable hashes : int array; (* per slot *)
    mutable index : Bytes.t; (* 32-bit cells: tagged slots, or -1 *)
    mutable mask : int; (* cells - 1, kept here so a probe reads no header *)
    mutable used : int; (* cells in use, stale ones included *)
    mutable head : int;
    mutable count : int;
  }

  (* Cells in the index for [slots] slots. A slot must fit in 30 bits,
     so no cell is negative. *)
  let index_size slots =
    if slots > 1 lsl 29 then invalid_arg "Verify_cache: ring too large";
    pow2_at_least (2 * slots) 1

  let empty_index cells = Bytes.make (4 * cells) '\255'

  (* A zero-limit ring has no slots and a one-cell index that stays
     empty, so every probe misses at once. *)
  let create ~limit =
    let slots = Int.min limit 64 in
    {
      limit;
      hashes = Array.make slots 0;
      index = empty_index (index_size slots);
      mask = index_size slots - 1;
      used = 0;
      head = 0;
      count = 0;
    }

  let count r = r.count
  let full r = r.count = Array.length r.hashes

  (* The cell of [slot] under hash [h] in an index of [mask + 1] cells:
     hash bits 30 down to the top of the mask, with the slot in the bits
     below. *)
  let cell h mask slot = h land 0x7fffffff land lnot mask lor slot

  (* Cell [i] of the index; callers pass [i] masked. *)
  let get r i = Int32.to_int (Native.bytes_get32u r.index (4 * i))
  let set r i c = Native.bytes_set32u r.index (4 * i) (Int32.of_int c)

  (* The slot of the entry with hash [h] for which [matches tbl k1 k2
     slot] holds, or -1. A cell is a candidate when it differs from the
     tag ([cell h mask 0]) only in its slot bits. [matches] is a closed
     top-level function and the key comes in two plain arguments, so a
     probe allocates nothing. *)
  let rec probe r matches tbl k1 k2 tag mask i =
    let c = get r i in
    if c < 0 then -1
    else if c lxor tag <= mask && matches tbl k1 k2 (c land mask) then c land mask
    else probe r matches tbl k1 k2 tag mask ((i + 1) land mask)

  let find r matches tbl k1 k2 h =
    probe r matches tbl k1 k2 (cell h r.mask 0) r.mask (h land r.mask)

  let rec link r c i =
    if get r i < 0 then set r i c else link r c ((i + 1) land r.mask)

  (* The slot of the [k]th oldest entry. *)
  let nth r k =
    let len = Array.length r.hashes and s = r.head + k in
    if s >= len then s - len else s

  (* Empty the index and link every live entry again, oldest first. *)
  let relink r =
    Bytes.fill r.index 0 (Bytes.length r.index) '\255';
    for k = 0 to r.count - 1 do
      let slot = nth r k in
      let h = r.hashes.(slot) in
      link r (cell h r.mask slot) (h land r.mask)
    done;
    r.used <- r.count

  (* A new entry with hash [h] at the tail of the ring: its slot, already
     linked into the index. The caller makes room first ([full] is
     false). *)
  let push r h =
    let len = Array.length r.hashes and tail = r.head + r.count in
    let slot = if tail >= len then tail - len else tail in
    r.hashes.(slot) <- h;
    if 4 * (r.used + 1) > 3 * (r.mask + 1) then relink r;
    link r (cell h r.mask slot) (h land r.mask);
    r.used <- r.used + 1;
    r.count <- r.count + 1;
    slot

  (* Drop the oldest entry and return its slot, for its table to clear
     or reuse. Its cell goes stale. The ring must not be empty. *)
  let pop r =
    let slot = r.head in
    r.head <- (if slot + 1 = Array.length r.hashes then 0 else slot + 1);
    r.count <- r.count - 1;
    slot

  (* Growing doubles the slot count (up to [limit]) and lays the entries
     out oldest first from slot 0. A table first [regrow]s each of its
     columns, then calls [grow], which does the same to the hash column
     and rebuilds the index at its new size. *)
  let regrow r column fill =
    let len = Array.length column in
    let grown = Array.make (Int.min r.limit (2 * len)) fill in
    let first = Int.min r.count (len - r.head) in
    Array.blit column r.head grown 0 first;
    Array.blit column 0 grown first (r.count - first);
    grown

  let grow r =
    r.hashes <- regrow r r.hashes 0;
    r.head <- 0;
    r.index <- empty_index (index_size (Array.length r.hashes));
    r.mask <- index_size (Array.length r.hashes) - 1;
    relink r
end

(* ---------- probe hashes from word loads ----------

   Both keys are hashed from eight-byte word loads, with no C call and no
   allocation: the verdict key from its signature (a MAC tag or a
   hash-based signature, so its bytes are already well mixed), the digest
   memo's content from its length plus its first and last 64 bytes.
   Every caller reads within the string's length, so the loads are
   unchecked; their byte order only moves index positions, never a
   result. *)

let word s i = Int64.to_int (Native.string_get64u s i)
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

(* ---------- verdict keys, inline ----------

   A verdict entry's key is its signature, signer and message. When the
   three take at most [inline_max] bytes, they are copied, after an
   eight-byte stamp (generation * 2 + verdict), into one [Bytes] key
   store, and the entry's slot keeps one int: the offset and the three
   lengths. Such an entry holds no OCaml pointer: storing it writes no
   pointer (no [caml_modify]), keeps no young message alive past the
   next minor collection, and leaves the major GC nothing to trace; a
   probe reads the index cell, the slot's int and the stamp and key
   bytes, which lie together. The store is a byte ring in the slots'
   FIFO order. Entries go in at [k_tail] and never wrap inside
   themselves: one that does not fit before the end starts again at
   offset 0, and the skipped bytes count as used until the entry ahead
   of them goes. The oldest entry's offset is [k_head], so an eviction
   frees bytes just by moving it. An entry that fits nowhere doubles the
   store, with the entries compacted oldest first, so the store settles
   at a small multiple of the bytes its keys take. Larger keys (a
   request batch, a hash-based signature) are kept by pointer in
   [v_big] instead, since copying them would cost more than the pin;
   their slot's int is negative and records only the offset where the
   next entry's bytes begin. Keys are written and compared with
   eight-byte word stores and loads, with no C call. *)

let inline_max = 512

(* An inline entry's int: its offset, then 10 bits each for the
   signature, signer and message lengths. *)
let key_word off ls lg lm = (off lsl 30) lor ls lor (lg lsl 10) lor (lm lsl 20)
let kw_off k = k lsr 30
let kw_signature k = k land 1023
let kw_signer k = (k lsr 10) land 1023
let kw_msg k = (k lsr 20) land 1023
let big_word off = -1 - off
let kw_place k = if k < 0 then -1 - k else kw_off k

(* Where an inline entry's message begins. *)
let kw_msg_off k = kw_off k + 8 + kw_signature k + kw_signer k

(* Both check the key's bounds once, then move whole words unchecked. *)
let in_store b off n = off >= 0 && off + n <= Bytes.length b

(* Copy [s] into [b] at [off]: its whole words, then its last eight
   bytes, which may overlap the words before them. *)
let put b off s =
  let n = String.length s in
  if not (in_store b off n) then invalid_arg "Verify_cache.put";
  if n >= 8 then begin
    let last = n - 8 in
    let i = ref 0 in
    while !i < last do
      Native.bytes_set64u b (off + !i) (Native.string_get64u s !i);
      i := !i + 8
    done;
    Native.bytes_set64u b (off + last) (Native.string_get64u s last)
  end
  else
    for i = 0 to n - 1 do
      Bytes.unsafe_set b (off + i) (String.unsafe_get s i)
    done

let rec words_equal b off s i last =
  if i >= last then
    Int64.equal (Native.bytes_get64u b (off + last)) (Native.string_get64u s last)
  else
    Int64.equal (Native.bytes_get64u b (off + i)) (Native.string_get64u s i)
    && words_equal b off s (i + 8) last

let rec chars_equal b off s i =
  i = String.length s
  || Char.equal (Bytes.unsafe_get b (off + i)) (String.unsafe_get s i)
     && chars_equal b off s (i + 1)

(* [s] equals the [String.length s] bytes of [b] at [off]. *)
let equal_at b off s =
  let n = String.length s in
  in_store b off n
  && if n >= 8 then words_equal b off s 0 (n - 8) else chars_equal b off s 0

(* A key over [inline_max] bytes, kept by pointer, with its stamp. *)
type big = { b_signer : string; b_signature : string; b_msg : string; b_stamp : int }

let no_big = { b_signer = ""; b_signature = ""; b_msg = ""; b_stamp = 0 }

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
  mutable keys : Bytes.t; (* stamps and inline keys, in slot order *)
  mutable k_head : int; (* where the oldest entry's bytes begin *)
  mutable k_tail : int; (* where the next entry's bytes go *)
  mutable v_key : int array; (* [key_word], or [big_word] *)
  mutable v_big : big array; (* keys over [inline_max]; [no_big] else *)
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
  mutable i_sha_bytes : int;
}

(* The digest memo's FIFO window only has to cover content still in
   flight (a few pipelined batches); a huge budget would just pin dead
   operations on the major heap for the GC to trace. *)
let create ?(capacity = 4096) ?(digest_budget = 8 * 1024 * 1024) keystore =
  let capacity = Int.max 0 capacity in
  let verdicts = Ring.create ~limit:capacity in
  let digests = Ring.create ~limit:(if digest_budget > 0 then max_int else 0) in
  let slots r = Array.length r.Ring.hashes in
  {
    keystore;
    capacity;
    verdicts;
    keys = Bytes.create (64 * slots verdicts);
    k_head = 0;
    k_tail = 0;
    v_key = Array.make (slots verdicts) 0;
    v_big = Array.make (slots verdicts) no_big;
    digests;
    d_content = Array.make (slots digests) "";
    d_digest = Array.make (slots digests) "";
    dbytes = 0;
    digest_budget;
    i_verify_hits = 0;
    i_verify_misses = 0;
    i_digest_hits = 0;
    i_digest_misses = 0;
    i_sha_bytes = 0;
  }

let instance_counters t =
  {
    verify_hits = t.i_verify_hits;
    verify_misses = t.i_verify_misses;
    digest_hits = t.i_digest_hits;
    digest_misses = t.i_digest_misses;
  }

let sha_bytes t = t.i_sha_bytes

(* ---------- verdicts ---------- *)

let verdict_matches t signer signature s =
  let k = t.v_key.(s) in
  if k < 0 then
    let b = t.v_big.(s) in
    String.equal b.b_signature signature && String.equal b.b_signer signer
  else
    kw_signature k = String.length signature
    && kw_signer k = String.length signer
    && equal_at t.keys (kw_off k + 8) signature
    && equal_at t.keys (kw_off k + 8 + String.length signature) signer

let lookup t ~signer ~signature h =
  Ring.find t.verdicts verdict_matches t signer signature h

let stamp t slot =
  let k = t.v_key.(slot) in
  if k < 0 then t.v_big.(slot).b_stamp
  else Int64.to_int (Bytes.get_int64_le t.keys (kw_off k))

let grow_verdicts t =
  let r = t.verdicts in
  t.v_key <- Ring.regrow r t.v_key 0;
  t.v_big <- Ring.regrow r t.v_big no_big;
  Ring.grow r

(* Move the live bytes, from the head to the tail (through the end of
   the store when the ring has wrapped, skipped bytes and all), to
   offset 0 of a store doubled until they and [n] more bytes fit. Two
   blits; no byte outside them is ever read, so the new store needs no
   clearing. *)
let grow_keys t n =
  let r = t.verdicts and size = Bytes.length t.keys in
  let wrapped = t.k_tail < t.k_head in
  let first = (if wrapped then size else t.k_tail) - t.k_head in
  let second = if wrapped then t.k_tail else 0 in
  let grown = ref (Int.max 64 (2 * size)) in
  while !grown < first + second + n do
    grown := 2 * !grown
  done;
  let keys = Bytes.create !grown in
  Bytes.blit t.keys t.k_head keys 0 first;
  Bytes.blit t.keys 0 keys first second;
  let moved off = if off >= t.k_head then off - t.k_head else off + first in
  for i = 0 to Ring.count r - 1 do
    let slot = Ring.nth r i in
    let k = t.v_key.(slot) in
    t.v_key.(slot) <-
      (if k < 0 then big_word (moved (kw_place k))
       else key_word (moved (kw_off k)) (kw_signature k) (kw_signer k) (kw_msg k))
  done;
  t.keys <- keys;
  t.k_head <- 0;
  t.k_tail <- first + second

(* The offset for a new entry of [n] bytes: the tail if it fits between
   the tail and the end (or, once the ring has wrapped, the oldest
   entry), else 0 if it fits before the oldest entry, else the tail of a
   grown store. A wrapped tail never reaches the head, so the two are
   equal only when the ring holds no inline byte. *)
let reserve t n =
  if Ring.count t.verdicts = 0 then begin
    t.k_head <- 0;
    t.k_tail <- 0
  end;
  if t.k_tail >= t.k_head then
    if t.k_tail + n <= Bytes.length t.keys then t.k_tail
    else if n < t.k_head then 0
    else begin
      grow_keys t n;
      t.k_tail
    end
  else if t.k_tail + n < t.k_head then t.k_tail
  else begin
    grow_keys t n;
    t.k_tail
  end

(* Drop the oldest entry: its bytes are freed once the next entry's
   offset is the head. *)
let evict_verdict t =
  let r = t.verdicts in
  let slot = Ring.pop r in
  if t.v_key.(slot) < 0 then t.v_big.(slot) <- no_big;
  if Ring.count r > 0 then t.k_head <- kw_place t.v_key.(r.Ring.head)

(* Write a new entry at the tail, evicting the oldest once the ring holds
   [capacity] entries (the popped slot is the one [push] reuses). No-op
   at capacity 0. *)
let insert t ~signer ~signature h ~msg stamp =
  if t.capacity > 0 then begin
    let r = t.verdicts in
    if Ring.full r then
      if Ring.count r = t.capacity then evict_verdict t else grow_verdicts t;
    let ls = String.length signature
    and lg = String.length signer
    and lm = String.length msg in
    if ls + lg + lm <= inline_max then begin
      let n = 8 + ls + lg + lm in
      let off = reserve t n in
      Bytes.set_int64_le t.keys off (Int64.of_int stamp);
      put t.keys (off + 8) signature;
      put t.keys (off + 8 + ls) signer;
      put t.keys (off + 8 + ls + lg) msg;
      t.k_tail <- off + n;
      t.v_key.(Ring.push r h) <- key_word off ls lg lm
    end
    else begin
      let slot = Ring.push r h in
      t.v_key.(slot) <- big_word t.k_tail;
      t.v_big.(slot) <-
        { b_signer = signer; b_signature = signature; b_msg = msg; b_stamp = stamp }
    end
  end

let hit t =
  incr c_verify_hits;
  t.i_verify_hits <- t.i_verify_hits + 1

let miss t =
  incr c_verify_misses;
  t.i_verify_misses <- t.i_verify_misses + 1

(* The two halves of [verify], kept apart for [sign] and the tests: a
   [probe] counts the hit/miss exactly as [verify] does, a [record]
   counts nothing. *)

let current t slot ~gen ~msg =
  slot >= 0
  && stamp t slot asr 1 = gen
  &&
  let k = t.v_key.(slot) in
  if k < 0 then
    let m = t.v_big.(slot).b_msg in
    m == msg || String.equal m msg
  else kw_msg k = String.length msg && equal_at t.keys (kw_msg_off k) msg

let verdict t slot = stamp t slot land 1 = 1

(* Store a verdict for the key. A [found] slot (stale generation, or a key
   collision with a different message) is refreshed in place, with no
   ring movement: a message no longer than the old one overwrites it
   inline, a longer one moves the key to [v_big]. *)
let store t ~signer ~signature h found ~msg ~gen v =
  let stamp = (gen lsl 1) lor Bool.to_int v in
  if found < 0 then insert t ~signer ~signature h ~msg stamp
  else
    let k = t.v_key.(found) in
    if k >= 0 && String.length msg <= kw_msg k then begin
      Bytes.set_int64_le t.keys (kw_off k) (Int64.of_int stamp);
      put t.keys (kw_msg_off k) msg;
      t.v_key.(found) <-
        key_word (kw_off k) (kw_signature k) (kw_signer k) (String.length msg)
    end
    else begin
      t.v_key.(found) <- big_word (kw_place k);
      t.v_big.(found) <-
        { b_signer = signer; b_signature = signature; b_msg = msg; b_stamp = stamp }
    end

let probe t ~signer ~msg ~signature =
  let h = signature_hash signature in
  let slot = lookup t ~signer ~signature h in
  if current t slot ~gen:(Signer.generation t.keystore) ~msg then begin
    hit t;
    (* Both options are constants: a hit allocates nothing. *)
    if verdict t slot then Some true else Some false
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
    verdict t slot
  end
  else begin
    miss t;
    let v = Signer.verify t.keystore ~signer ~msg ~signature in
    store t ~signer ~signature h slot ~msg ~gen v;
    v
  end

(* A batch of independent checks is counted once, then answered job by
   job through [verify]: the verdict list is the sequential one. *)
type job = { signer : string; msg : string; signature : string }

let verify_batch t jobs =
  incr c_batches;
  c_batch_jobs := !c_batch_jobs + List.length jobs;
  List.map
    (fun { signer; msg; signature } -> verify t ~signer ~msg ~signature)
    jobs

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

(* Every SHA-256 pass of [digest] and its twins, tallied per instance. *)
let sha t s =
  t.i_sha_bytes <- t.i_sha_bytes + String.length s;
  Sha256.digest s

(* A value's own memo of one string's digest, written only here, with
   this module's own hash of [m_of]. [m_of] is compared by identity, so
   a memo shared by a record copied with another string, or filled for
   some other string, is never read for this one. An empty memo names
   "", which is never asked about: only strings of at least
   [digest_memo_min] bytes reach it. *)
type sha_memo = { mutable m_of : string; mutable m_digest : string }

let sha_memo () = { m_of = ""; m_digest = "" }

(* The memo [digest] and [lookup_digest] pass: never read nor written,
   so they hash on every ring miss. *)
let no_memo = sha_memo ()

let memo_sha t m s =
  if m == no_memo then sha t s
  else if m.m_of == s then m.m_digest
  else begin
    let d = sha t s in
    m.m_of <- s;
    m.m_digest <- d;
    d
  end

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

let digest_hit t slot =
  incr c_digest_hits;
  t.i_digest_hits <- t.i_digest_hits + 1;
  t.d_digest.(slot)

let digest_miss t =
  incr c_digest_misses;
  t.i_digest_misses <- t.i_digest_misses + 1

(* What [digest] does without the ring: small strings are hashed
   uncounted, and a zero budget, which keeps nothing, skips the ring
   outright: a counted miss and a direct hash, with no insertion to
   evict again at once. *)
let unmemoized t s =
  if String.length s >= digest_memo_min then digest_miss t;
  sha t s

let bypasses t s = String.length s < digest_memo_min || t.digest_budget <= 0

(* Memoized SHA-256 of [s]; on a ring miss the value's memo [m] stands
   in for the hash. *)
let digest_with t m s =
  if bypasses t s then unmemoized t s
  else
    let fp = fingerprint s in
    let slot = find_digest t s fp in
    if slot >= 0 then digest_hit t slot
    else begin
      digest_miss t;
      let d = memo_sha t m s in
      remember t s fp d;
      d
    end

let digest t s = digest_with t no_memo s

(* Read-only twin of [digest_with], for content the node has already
   digested on its signing path (a committed op reaching the log and the
   app). It neither inserts nor counts, so reusing a digest changes no
   statistic. *)
let lookup_digest_with t m s =
  if bypasses t s then sha t s
  else
    let slot = find_digest t s (fingerprint s) in
    if slot >= 0 then t.d_digest.(slot) else memo_sha t m s

let lookup_digest t s = lookup_digest_with t no_memo s
