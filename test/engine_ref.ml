(* Reference event engine: the binary heap of event records, kept from
   the original implementation of [Bp_sim.Engine] (a heap of [event]
   pointers beside int key arrays, a separate [timer] per event and a
   [repeat] option for periodic timers). The production engine keeps
   only ints in its heap and one record per timer; this one exists only
   as the test suite's model of its firing order and its [now],
   [pending] and [cancelled_backlog] after every step. Do not optimize
   it. *)

open Bp_sim

(* Counters shared between an engine and its timers, so [cancel] — whose
   public signature takes only the timer — can maintain O(1) live-event
   accounting without a back-pointer to the whole engine. *)
type cell = { mutable live : int; mutable backlog : int }

type timer = {
  mutable cancelled : bool;
  mutable queued : bool; (* a heap entry for this timer exists *)
  cell : cell;
}

type event = {
  fire_at : Time.t;
  seq : int;
  action : unit -> unit;
  timer : timer;
  repeat : Time.t option;
}

module Heap = struct
  (* Binary min-heap ordered by (fire_at, seq). The keys live in two
     parallel unboxed [int array]s so a comparison reads contiguous
     integers; the event pointers ride along in a third array and are only
     dereferenced when an event is actually popped. Sifting moves entries
     into a hole instead of swapping, and indices are always < len by the
     heap invariant, so accesses skip the bounds checks. *)
  type t = {
    mutable times : int array; (* fire_at, in ns *)
    mutable seqs : int array;
    mutable events : event array;
    mutable len : int;
  }

  let dummy =
    {
      fire_at = Time.zero;
      seq = -1;
      action = ignore;
      timer = { cancelled = true; queued = false; cell = { live = 0; backlog = 0 } };
      repeat = None;
    }

  let create () =
    {
      times = Array.make 64 0;
      seqs = Array.make 64 0;
      events = Array.make 64 dummy;
      len = 0;
    }

  let grow h =
    let n = 2 * Array.length h.times in
    let times = Array.make n 0 in
    let seqs = Array.make n 0 in
    let events = Array.make n dummy in
    Array.blit h.times 0 times 0 h.len;
    Array.blit h.seqs 0 seqs 0 h.len;
    Array.blit h.events 0 events 0 h.len;
    h.times <- times;
    h.seqs <- seqs;
    h.events <- events

  (* Write (te, se, e) at index [i]. *)
  let[@inline] place h i te se e =
    Array.unsafe_set h.times i te;
    Array.unsafe_set h.seqs i se;
    Array.unsafe_set h.events i e

  let[@inline] move h ~src ~dst =
    place h dst
      (Array.unsafe_get h.times src)
      (Array.unsafe_get h.seqs src)
      (Array.unsafe_get h.events src)

  let push h e =
    if h.len = Array.length h.times then grow h;
    let te = Time.to_ns e.fire_at and se = e.seq in
    let i = ref h.len in
    h.len <- h.len + 1;
    let continue = ref true in
    while !continue && !i > 0 do
      let p = (!i - 1) / 2 in
      let tp = Array.unsafe_get h.times p in
      if tp > te || (tp = te && Array.unsafe_get h.seqs p > se) then begin
        move h ~src:p ~dst:!i;
        i := p
      end
      else continue := false
    done;
    place h !i te se e

  (* Sift (te, se, e) down from the hole at [i]. *)
  let sift_down_from h i te se e =
    let len = h.len in
    let i = ref i in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= len then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r < len then begin
            let tl = Array.unsafe_get h.times l and tr = Array.unsafe_get h.times r in
            if tr < tl || (tr = tl && Array.unsafe_get h.seqs r < Array.unsafe_get h.seqs l)
            then r
            else l
          end
          else l
        in
        let tc = Array.unsafe_get h.times c in
        if tc < te || (tc = te && Array.unsafe_get h.seqs c < se) then begin
          move h ~src:c ~dst:!i;
          i := c
        end
        else continue := false
      end
    done;
    place h !i te se e

  (* Re-sift the entry currently at [i] (used by the purge heapify). *)
  let sift_down h i =
    sift_down_from h i
      (Array.unsafe_get h.times i)
      (Array.unsafe_get h.seqs i)
      (Array.unsafe_get h.events i)

  let pop h =
    if h.len = 0 then None
    else begin
      let top = Array.unsafe_get h.events 0 in
      let n = h.len - 1 in
      h.len <- n;
      if n > 0 then begin
        let te = Array.unsafe_get h.times n and se = Array.unsafe_get h.seqs n in
        let e = Array.unsafe_get h.events n in
        Array.unsafe_set h.events n dummy;
        sift_down_from h 0 te se e
      end
      else Array.unsafe_set h.events 0 dummy;
      Some top
    end
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

(* Drop every cancelled entry, then re-heapify in place (Floyd, O(n)).
   The (fire_at, seq) order makes the rebuilt heap's pop sequence
   independent of how survivors were laid out, so purging never perturbs
   determinism. *)
let purge t =
  let h = t.heap in
  let j = ref 0 in
  for i = 0 to h.Heap.len - 1 do
    let e = h.Heap.events.(i) in
    if e.timer.cancelled then e.timer.queued <- false
    else begin
      h.Heap.times.(!j) <- h.Heap.times.(i);
      h.Heap.seqs.(!j) <- h.Heap.seqs.(i);
      h.Heap.events.(!j) <- e;
      incr j
    end
  done;
  for i = !j to h.Heap.len - 1 do
    h.Heap.events.(i) <- Heap.dummy
  done;
  h.Heap.len <- !j;
  for i = (!j / 2) - 1 downto 0 do
    Heap.sift_down h i
  done;
  t.cell.backlog <- 0

let[@inline] maybe_purge t =
  if t.cell.backlog > purge_threshold && t.cell.backlog > t.cell.live then purge t

let enqueue t ~at ~repeat ~timer action =
  maybe_purge t;
  let e = { fire_at = at; seq = t.next_seq; action; timer; repeat } in
  t.next_seq <- t.next_seq + 1;
  timer.queued <- true;
  t.cell.live <- t.cell.live + 1;
  Heap.push t.heap e;
  timer

let fresh_timer t = { cancelled = false; queued = false; cell = t.cell }

let schedule_at t at action =
  if Time.(at < t.clock) then invalid_arg "Engine.schedule_at: in the past";
  enqueue t ~at ~repeat:None ~timer:(fresh_timer t) action

let schedule t ~after action =
  enqueue t ~at:(Time.add t.clock after) ~repeat:None ~timer:(fresh_timer t) action

let periodic t ~every action =
  if Time.to_ns every <= 0 then invalid_arg "Engine.periodic: period must be positive";
  enqueue t ~at:(Time.add t.clock every) ~repeat:(Some every) ~timer:(fresh_timer t)
    action

let cancel (timer : timer) =
  if not timer.cancelled then begin
    timer.cancelled <- true;
    if timer.queued then begin
      timer.cell.live <- timer.cell.live - 1;
      timer.cell.backlog <- timer.cell.backlog + 1
    end
  end

(* Discard a cancelled event that surfaced at the heap root. *)
let drop_cancelled t e =
  e.timer.queued <- false;
  t.cell.backlog <- t.cell.backlog - 1

let fire t e =
  e.timer.queued <- false;
  t.cell.live <- t.cell.live - 1;
  (* Re-arm periodic timers before running the action so the action can
     cancel its own timer. *)
  (match e.repeat with
  | Some every ->
      ignore
        (enqueue t ~at:(Time.add e.fire_at every) ~repeat:(Some every)
           ~timer:e.timer e.action)
  | None -> ());
  t.clock <- e.fire_at;
  e.action ()

(* A cancelled root means the pop path is wading through tombstones. One
   lazy drop per pop is fine when they are rare; once the backlog
   dominates (same condition as [maybe_purge]) a single O(n) compaction
   replaces O(backlog) sift-downs — this is what keeps a cancel-heavy
   workload (e.g. timeout timers that almost never fire) from paying a
   per-event logarithmic toll on dead entries at drain time, not just at
   enqueue time. *)
let[@inline] purge_worthwhile t =
  t.cell.backlog > purge_threshold && t.cell.backlog > t.cell.live

let step t =
  let rec next () =
    if purge_worthwhile t then purge t;
    match Heap.pop t.heap with
    | None -> false
    | Some e ->
        if e.timer.cancelled then begin
          drop_cancelled t e;
          next ()
        end
        else begin
          fire t e;
          true
        end
  in
  next ()

let run ?until ?(max_events = 50_000_000) t =
  let fired = ref 0 in
  let continue = ref true in
  while !continue do
    let h = t.heap in
    if h.Heap.len = 0 then continue := false
    else begin
      (* Inspect the root once, then pop it directly — no peek-then-pop
         re-descent through [step]. *)
      let top = h.Heap.events.(0) in
      if top.timer.cancelled then begin
        if purge_worthwhile t then purge t
        else begin
          ignore (Heap.pop h);
          drop_cancelled t top
        end
      end
      else begin
        let beyond =
          match until with Some u -> Time.(top.fire_at > u) | None -> false
        in
        if beyond then begin
          (match until with Some u -> t.clock <- Time.max t.clock u | None -> ());
          continue := false
        end
        else begin
          ignore (Heap.pop h);
          fire t top;
          incr fired;
          if !fired >= max_events then
            failwith "Engine.run: max_events exceeded (runaway simulation?)"
        end
      end
    end
  done
