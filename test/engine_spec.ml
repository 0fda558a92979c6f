(* An executable specification of [Bp_sim.Engine]'s observable
   behaviour: which actions fire, in which order, and [now], [pending]
   and [cancelled_backlog] after every call. The queue is a list of
   (fire_at, seq, timer) entries kept sorted, and cancellation is a
   flag. Nothing is counted on the side: a timer is queued while it has
   an entry, [pending] counts the entries not cancelled and
   [cancelled_backlog] the cancelled ones. Written to be read, not to be
   fast. *)

open Bp_sim

type timer = {
  mutable cancelled : bool;
  every : int; (* the period in ns; 0 for a one-shot *)
  action : unit -> unit;
}

type t = {
  mutable clock : Time.t;
  mutable next_seq : int;
  mutable queue : (Time.t * int * timer) list; (* by fire_at, then seq *)
}

let create ?seed:(_ : int64 option) () = { clock = Time.zero; next_seq = 0; queue = [] }
let now t = t.clock

let count t cancelled =
  List.length (List.filter (fun (_, _, tm) -> Bool.equal tm.cancelled cancelled) t.queue)

let pending t = count t false
let cancelled_backlog t = count t true

(* The purge rule: once more than 256 cancelled entries are queued and
   they outnumber the live ones, every cancelled entry is dropped. *)
let purge_due t = cancelled_backlog t > 256 && cancelled_backlog t > pending t
let purge t = t.queue <- List.filter (fun (_, _, tm) -> not tm.cancelled) t.queue

(* The new seq is the largest yet, so the entry goes after every entry
   due at or before its time. *)
let enqueue t at tm =
  if purge_due t then purge t;
  let earlier, later = List.partition (fun (at', _, _) -> Time.(at' <= at)) t.queue in
  t.queue <- earlier @ ((at, t.next_seq, tm) :: later);
  t.next_seq <- t.next_seq + 1

let arm t at every action =
  let tm = { cancelled = false; every; action } in
  enqueue t at tm;
  tm

let schedule t ~after action = arm t (Time.add t.clock after) 0 action

let schedule_at t at action =
  if Time.(at < t.clock) then invalid_arg "Engine_spec.schedule_at: in the past";
  arm t at 0 action

let periodic t ~every action =
  if Time.to_ns every <= 0 then invalid_arg "Engine_spec.periodic: period must be positive";
  arm t (Time.add t.clock every) (Time.to_ns every) action

let cancel tm = tm.cancelled <- true

(* Take the head off the queue: a cancelled one is dropped, a live one
   fires, and a periodic timer re-enters the queue before its action. *)
let pop t at tm rest =
  t.queue <- rest;
  if not tm.cancelled then begin
    if tm.every > 0 then enqueue t (Time.add at (Time.of_ns tm.every)) tm;
    t.clock <- at;
    tm.action ()
  end

let rec step t =
  if purge_due t then purge t;
  match t.queue with
  | [] -> false
  | (at, _, tm) :: rest ->
      let live = not tm.cancelled in
      pop t at tm rest;
      live || step t

(* [until] moves the clock only when a live head lies beyond it. *)
let run ?until ?(max_events = 50_000_000) t =
  let rec loop fired =
    match (t.queue, until) with
    | [], _ -> ()
    | (_, _, tm) :: _, _ when tm.cancelled && purge_due t -> purge t; loop fired
    | (at, _, tm) :: rest, _ when tm.cancelled -> pop t at tm rest; loop fired
    | (at, _, _) :: _, Some u when Time.(at > u) -> t.clock <- Time.max t.clock u
    | (at, _, tm) :: rest, _ ->
        pop t at tm rest;
        if fired + 1 >= max_events then failwith "Engine_spec.run: max_events exceeded";
        loop (fired + 1)
  in
  loop 0
