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

module Digest_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash = Hashtbl.hash
end)

(* The verdict table is flat: one array per field, indexed by slot, and
   an open-addressed index from the key's hash to its slot. Slots are
   written in FIFO ring order, so the slot at the cursor is always the
   oldest entry and the next to be evicted; a probe allocates nothing. *)
type t = {
  keystore : Signer.t;
  capacity : int;
  (* Keyed by (signer, signature): for honest traffic the signature alone
     pins the message, and the stored message is compared on every probe,
     so colliding keys (e.g. the all-zero forged signature under several
     bodies) just overwrite each other — never cross-talk. Hashing the
     message instead would cost as much as the verify being saved. The
     slot arrays grow by doubling up to [capacity] while the ring first
     fills, so a short-lived cache never pays for its full size. *)
  mutable v_signer : string array;
  mutable v_signature : string array;
  mutable v_msg : string array;
  mutable v_gen : int array;
  mutable v_verdict : bool array;
  mutable v_hash : int array;
  (* Linear probing over a power-of-two table at least twice [capacity],
     so it is never more than half full: each cell holds a slot or -1. *)
  index : int array;
  mutable cursor : int; (* next slot to write *)
  mutable filled : int; (* slots in use: [capacity] once the ring wraps *)
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

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

(* The digest memo's FIFO window only has to cover content still in
   flight (a few pipelined batches); a huge budget would just pin dead
   operations on the major heap for the GC to trace. *)
let create ?(capacity = 4096) ?(digest_budget = 8 * 1024 * 1024) keystore =
  let capacity = max 0 capacity in
  let slots = min capacity 64 in
  {
    keystore;
    capacity;
    v_signer = Array.make slots "";
    v_signature = Array.make slots "";
    v_msg = Array.make slots "";
    v_gen = Array.make slots 0;
    v_verdict = Array.make slots false;
    v_hash = Array.make slots 0;
    index = Array.make (pow2_at_least (2 * capacity) 1) (-1);
    cursor = 0;
    filled = 0;
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

let hash_key ~signature = Hashtbl.hash signature

(* The slot holding (signer, signature), or -1. A capacity-0 cache has a
   one-cell index that stays empty, so every probe misses at once. *)
let rec find t ~signer ~signature h i =
  let s = t.index.(i) in
  if s < 0 then -1
  else if
    t.v_hash.(s) = h
    && String.equal t.v_signature.(s) signature
    && String.equal t.v_signer.(s) signer
  then s
  else find t ~signer ~signature h ((i + 1) land (Array.length t.index - 1))

let rec link t slot i =
  if t.index.(i) < 0 then t.index.(i) <- slot
  else link t slot ((i + 1) land (Array.length t.index - 1))

(* Backward-shift deletion: refill the hole at [hole] with the first later
   entry in the run whose home does not lie strictly between the hole and
   that entry, then repeat from the entry's old cell, until the run ends.
   No tombstones, so probe runs never lengthen with churn. *)
let rec close_hole t hole j =
  let mask = Array.length t.index - 1 in
  let s = t.index.(j) in
  if s < 0 then t.index.(hole) <- -1
  else if (j - (t.v_hash.(s) land mask)) land mask >= (j - hole) land mask then begin
    t.index.(hole) <- s;
    close_hole t j ((j + 1) land mask)
  end
  else close_hole t hole ((j + 1) land mask)

let rec unlink t slot i =
  let mask = Array.length t.index - 1 in
  if t.index.(i) = slot then close_hole t i ((i + 1) land mask)
  else unlink t slot ((i + 1) land mask)

let grow t =
  let n = min t.capacity (2 * Array.length t.v_hash) in
  let extend a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  t.v_signer <- extend t.v_signer "";
  t.v_signature <- extend t.v_signature "";
  t.v_msg <- extend t.v_msg "";
  t.v_gen <- extend t.v_gen 0;
  t.v_verdict <- extend t.v_verdict false;
  t.v_hash <- extend t.v_hash 0

(* Write a new entry at the cursor, evicting the oldest once the ring is
   full. No-op at capacity 0. *)
let insert t ~signer ~signature h ~msg ~gen verdict =
  if t.capacity > 0 then begin
    let slot = t.cursor in
    let mask = Array.length t.index - 1 in
    if t.filled = t.capacity then unlink t slot (t.v_hash.(slot) land mask)
    else begin
      if slot = Array.length t.v_hash then grow t;
      t.filled <- t.filled + 1
    end;
    t.v_signer.(slot) <- signer;
    t.v_signature.(slot) <- signature;
    t.v_msg.(slot) <- msg;
    t.v_gen.(slot) <- gen;
    t.v_verdict.(slot) <- verdict;
    t.v_hash.(slot) <- h;
    link t slot (h land mask);
    t.cursor <- (if slot + 1 = t.capacity then 0 else slot + 1)
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

let lookup t ~signer ~signature h =
  find t ~signer ~signature h (h land (Array.length t.index - 1))

let probe t ~signer ~msg ~signature =
  let h = hash_key ~signature in
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
  let h = hash_key ~signature in
  store t ~signer ~signature h
    (lookup t ~signer ~signature h)
    ~msg ~gen:(Signer.generation t.keystore) verdict

let verify t ~signer ~msg ~signature =
  let gen = Signer.generation t.keystore in
  let h = hash_key ~signature in
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

let keeps_nothing t = t.capacity = 0 && t.digest_budget <= 0

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
