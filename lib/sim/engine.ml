(* Counters shared between an engine and its timers, so [cancel] — whose
   public signature takes only the timer — can maintain O(1) live-event
   accounting without a back-pointer to the whole engine. *)
type cell = { mutable live : int; mutable backlog : int }

(* One record per scheduled event. It is what the heap holds, and a
   periodic timer re-enters the heap as this same record. *)
type timer = {
  mutable cancelled : bool;
  mutable queued : bool; (* a heap entry for this timer exists *)
  cell : cell;
  action : unit -> unit;
  every : Time.t; (* the period; zero for a one-shot event *)
}

let dummy =
  {
    cancelled = true;
    queued = false;
    cell = { live = 0; backlog = 0 };
    action = ignore;
    every = Time.zero;
  }

module Heap = struct
  (* 4-ary min-heap ordered by (fire_at, seq). Entry [i] is the three
     ints at [3i] of [ents]: the fire time, the seq and the slot of the
     entry's timer in [slab], so a node's four children lie side by side.
     A sift moves ints and so runs no write barrier; the only pointer
     stores are a timer entering the slab (push) and leaving it (pop,
     purge). The slot fields are a permutation of the slab's slots:
     entries [0, len) hold the heap's, and [len, capacity) is the stack
     of free ones, its top at [len]. Sifting moves entries into a hole
     instead of swapping, and indices are always < len by the heap
     invariant, so accesses skip the bounds checks. *)
  type t = { mutable ents : int array; mutable slab : timer array; mutable len : int }

  let fresh_ents cap = Array.init (3 * cap) (fun k -> if k mod 3 = 2 then k / 3 else 0)
  let create () = { ents = fresh_ents 64; slab = Array.make 64 dummy; len = 0 }

  (* Only called when full: every slot is in use, and the new ones are
     all free. *)
  let grow h =
    let cap = Array.length h.slab in
    let ents = fresh_ents (2 * cap) and slab = Array.make (2 * cap) dummy in
    Array.blit h.ents 0 ents 0 (3 * cap);
    Array.blit h.slab 0 slab 0 cap;
    h.ents <- ents;
    h.slab <- slab

  let[@inline] time h i = Array.unsafe_get h.ents (3 * i)
  let[@inline] seq h i = Array.unsafe_get h.ents ((3 * i) + 1)
  let[@inline] slot h i = Array.unsafe_get h.ents ((3 * i) + 2)

  (* Entry [i] fires before (te, se). *)
  let[@inline] before h i te se =
    let ti = time h i in
    ti < te || (ti = te && seq h i < se)

  (* Write (te, se, sl) at index [i]. *)
  let[@inline] place h i te se sl =
    let k = 3 * i in
    Array.unsafe_set h.ents k te;
    Array.unsafe_set h.ents (k + 1) se;
    Array.unsafe_set h.ents (k + 2) sl

  let[@inline] move h ~src ~dst = place h dst (time h src) (seq h src) (slot h src)

  let push h at se tm =
    if h.len = Array.length h.slab then grow h;
    let te = Time.to_ns at in
    let sl = slot h h.len in
    Array.unsafe_set h.slab sl tm;
    let i = ref h.len in
    h.len <- h.len + 1;
    let continue = ref true in
    while !continue && !i > 0 do
      let p = (!i - 1) / 4 in
      if before h p te se then continue := false
      else begin
        move h ~src:p ~dst:!i;
        i := p
      end
    done;
    place h !i te se sl

  (* Sift (te, se, sl) down from the hole at [i]. *)
  let sift_down_from h i te se sl =
    let len = h.len in
    let i = ref i in
    let continue = ref true in
    while !continue do
      let first = (4 * !i) + 1 in
      if first >= len then continue := false
      else begin
        let c = ref first in
        for k = first + 1 to Int.min (first + 3) (len - 1) do
          if before h k (time h !c) (seq h !c) then c := k
        done;
        let c = !c in
        if before h c te se then begin
          move h ~src:c ~dst:!i;
          i := c
        end
        else continue := false
      end
    done;
    place h !i te se sl

  (* The root's fire time and timer; the heap must not be empty. *)
  let[@inline] min_time h : Time.t = Time.of_ns (time h 0)
  let[@inline] top h = Array.unsafe_get h.slab (slot h 0)

  (* Remove the root and return its timer; the heap must not be empty.
     The root's slot goes back on the free stack. *)
  let pop h =
    let sl = slot h 0 in
    let tm = Array.unsafe_get h.slab sl in
    Array.unsafe_set h.slab sl dummy;
    let n = h.len - 1 in
    h.len <- n;
    if n > 0 then sift_down_from h 0 (time h n) (seq h n) (slot h n);
    Array.unsafe_set h.ents ((3 * n) + 2) sl;
    tm

  (* Drop every cancelled entry, then re-heapify in place (Floyd, O(n)).
     A survivor moving down to [j] swaps slots with the dropped entry
     there, so the dropped entries' slots end up on the free stack. *)
  let purge h =
    let j = ref 0 in
    for i = 0 to h.len - 1 do
      let sl = slot h i in
      let tm = h.slab.(sl) in
      if tm.cancelled then begin
        tm.queued <- false;
        h.slab.(sl) <- dummy
      end
      else begin
        let dropped = slot h !j in
        place h !j (time h i) (seq h i) sl;
        Array.unsafe_set h.ents ((3 * i) + 2) dropped;
        incr j
      end
    done;
    h.len <- !j;
    if !j > 1 then
      for i = (!j - 2) / 4 downto 0 do
        sift_down_from h i (time h i) (seq h i) (slot h i)
      done
end

type t = {
  heap : Heap.t;
  mutable clock : Time.t;
  mutable next_seq : int;
  cell : cell;
  rng : Bp_util.Rng.t;
}

(* Cancelled entries are normally discarded lazily when they surface at
   the heap root. Past this many — and once they outnumber live events —
   the heap is compacted eagerly, so a cancel-heavy workload (timeout
   timers that almost never fire) cannot grow the heap without bound. *)
let purge_threshold = 256

let create ?(seed = 1L) () =
  {
    heap = Heap.create ();
    clock = Time.zero;
    next_seq = 0;
    cell = { live = 0; backlog = 0 };
    rng = Bp_util.Rng.create seed;
  }

let now t = t.clock
let rng t = t.rng
let pending t = t.cell.live
let cancelled_backlog t = t.cell.backlog

(* The (fire_at, seq) order makes the rebuilt heap's pop sequence
   independent of how survivors were laid out, so purging never perturbs
   determinism. *)
let purge t =
  Heap.purge t.heap;
  t.cell.backlog <- 0

(* A cancelled root means the pop path is wading through tombstones. One
   lazy drop per pop is fine when they are rare; once the backlog
   dominates, a single O(n) compaction replaces O(backlog) sift-downs —
   this is what keeps a cancel-heavy workload (e.g. timeout timers that
   almost never fire) from paying a per-event logarithmic toll on dead
   entries at drain time, not just at enqueue time. *)
let[@inline] purge_worthwhile t =
  t.cell.backlog > purge_threshold && t.cell.backlog > t.cell.live

let enqueue t ~at timer =
  if purge_worthwhile t then purge t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  timer.queued <- true;
  t.cell.live <- t.cell.live + 1;
  Heap.push t.heap at seq timer

let arm t ~at ~every action =
  let timer = { cancelled = false; queued = false; cell = t.cell; action; every } in
  enqueue t ~at timer;
  timer

let schedule_at t at action =
  if Time.(at < t.clock) then invalid_arg "Engine.schedule_at: in the past";
  arm t ~at ~every:Time.zero action

let schedule t ~after action = arm t ~at:(Time.add t.clock after) ~every:Time.zero action

let periodic t ~every action =
  if Time.to_ns every <= 0 then invalid_arg "Engine.periodic: period must be positive";
  arm t ~at:(Time.add t.clock every) ~every action

let cancel (timer : timer) =
  if not timer.cancelled then begin
    timer.cancelled <- true;
    if timer.queued then begin
      timer.cell.live <- timer.cell.live - 1;
      timer.cell.backlog <- timer.cell.backlog + 1
    end
  end

(* Discard a cancelled timer popped from the heap root. *)
let drop_cancelled t timer =
  timer.queued <- false;
  t.cell.backlog <- t.cell.backlog - 1

(* Run a timer just popped from the root, where it was due at [at]. *)
let fire t timer at =
  timer.queued <- false;
  t.cell.live <- t.cell.live - 1;
  (* Re-arm periodic timers before running the action so the action can
     cancel its own timer. *)
  if Time.to_ns timer.every > 0 then enqueue t ~at:(Time.add at timer.every) timer;
  t.clock <- at;
  timer.action ()

let rec step t =
  if purge_worthwhile t then purge t;
  let h = t.heap in
  if h.Heap.len = 0 then false
  else begin
    let at = Heap.min_time h in
    let timer = Heap.pop h in
    if timer.cancelled then begin
      drop_cancelled t timer;
      step t
    end
    else begin
      fire t timer at;
      true
    end
  end

let run ?until ?(max_events = 50_000_000) t =
  let fired = ref 0 in
  let continue = ref true in
  while !continue do
    let h = t.heap in
    if h.Heap.len = 0 then continue := false
    else begin
      (* Inspect the root once, then pop it directly — no peek-then-pop
         re-descent through [step]. *)
      let top = Heap.top h in
      if top.cancelled then begin
        if purge_worthwhile t then purge t
        else begin
          ignore (Heap.pop h);
          drop_cancelled t top
        end
      end
      else begin
        let at = Heap.min_time h in
        let beyond =
          match until with Some u -> Time.(at > u) | None -> false
        in
        if beyond then begin
          (match until with Some u -> t.clock <- Time.max t.clock u | None -> ());
          continue := false
        end
        else begin
          ignore (Heap.pop h);
          fire t top at;
          incr fired;
          if !fired >= max_events then
            failwith "Engine.run: max_events exceeded (runaway simulation?)"
        end
      end
    end
  done
