(* A mutex/condition work-sharing pool over OCaml 5 domains — with the
   stats mutex in lib/crypto/verify_batch, the one place in the tree
   where multicore primitives are allowed (bplint R2-domain). Workers
   pull task indices from the batch at the head of a FIFO queue under
   the pool mutex, run the task unlocked, and publish the result into a
   per-batch slot keyed by that index; the caller merges by index, so
   scheduling order never leaks into results.

   Everything mutable is protected by [mutex]; there are no atomics and
   no lock-free cleverness. Each task is a whole simulation, which
   dwarfs the per-task locking cost, so contention on the cursor is
   irrelevant. *)

type batch = {
  b_run : int -> unit;
      (* slot [i] runs task [i] and stores its result (closed over the
         submitter's result array, erasing the element type) *)
  b_total : int; (* number of tasks in this batch *)
  mutable b_next : int; (* next unclaimed task index *)
  mutable b_active : int; (* tasks currently executing in workers *)
  mutable b_failure : (exn * Printexc.raw_backtrace) option;
  mutable b_done : bool; (* all indices claimed and finished *)
}

type t = {
  jobs : int;
  mutex : Mutex.t;
  work : Condition.t; (* workers wait here for a batch / more indices *)
  idle : Condition.t; (* callers of run wait here for completion *)
  mutable queue : batch list;
      (* FIFO of batches that still have unclaimed indices; a batch is
         removed as soon as its last index is claimed (or abandoned) *)
  mutable stopping : bool;
  mutable workers : unit Domain.t list;
}

(* Called with [t.mutex] held; returns with it held. *)
let rec next_job t =
  if t.stopping then None
  else
    match t.queue with
    | b :: rest when b.b_next < b.b_total ->
        let i = b.b_next in
        b.b_next <- b.b_next + 1;
        b.b_active <- b.b_active + 1;
        if b.b_next >= b.b_total then t.queue <- rest;
        Some (b, i)
    | _ :: _ | [] ->
        Condition.wait t.work t.mutex;
        next_job t

(* Called with [t.mutex] held. *)
let finish_task t b outcome =
  (match outcome with
  | None -> ()
  | Some failure -> (
      (match b.b_failure with
      | Some _ -> () (* first exception (in completion order) wins *)
      | None -> b.b_failure <- Some failure);
      (* Abandon indices not yet claimed; running tasks finish. *)
      if b.b_next < b.b_total then begin
        b.b_next <- b.b_total;
        t.queue <- List.filter (fun b' -> b' != b) t.queue
      end));
  b.b_active <- b.b_active - 1;
  if b.b_next >= b.b_total && b.b_active = 0 then begin
    b.b_done <- true;
    Condition.broadcast t.idle
  end

let rec worker t =
  Mutex.lock t.mutex;
  match next_job t with
  | None -> Mutex.unlock t.mutex
  | Some (b, i) ->
      Mutex.unlock t.mutex;
      let outcome =
        match b.b_run i with
        | () -> None
        | exception e -> Some (e, Printexc.get_raw_backtrace ())
      in
      Mutex.lock t.mutex;
      finish_task t b outcome;
      Mutex.unlock t.mutex;
      worker t

let shutdown t =
  Mutex.lock t.mutex;
  if not t.stopping then begin
    t.stopping <- true;
    (* Fail batches that still have unclaimed work: with the workers
       gone nobody would ever finish them, and run would hang. *)
    List.iter
      (fun b ->
        if b.b_next < b.b_total then begin
          b.b_next <- b.b_total;
          match b.b_failure with
          | Some _ -> ()
          | None ->
              b.b_failure <-
                Some
                  ( Invalid_argument "Pool.run: pool was shut down",
                    Printexc.get_callstack 0 )
        end;
        if b.b_active = 0 then b.b_done <- true)
      t.queue;
    t.queue <- [];
    Condition.broadcast t.work;
    Condition.broadcast t.idle
  end;
  let workers = t.workers in
  t.workers <- [];
  Mutex.unlock t.mutex;
  List.iter Domain.join workers

let create ~jobs =
  let jobs = Stdlib.max 1 jobs in
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      queue = [];
      stopping = false;
      workers = [];
    }
  in
  (* One spawn at a time: when the runtime refuses a domain, the workers
     already running are joined before the failure propagates. *)
  (try
     for _ = 1 to if jobs > 1 then jobs else 0 do
       t.workers <- Domain.spawn (fun () -> worker t) :: t.workers
     done
   with e ->
     let bt = Printexc.get_raw_backtrace () in
     shutdown t;
     Printexc.raise_with_backtrace e bt);
  t

let jobs t = t.jobs

let run t tasks =
  if t.stopping then invalid_arg "Pool.run: pool is shut down";
  let tasks = Array.of_list tasks in
  let n = Array.length tasks in
  if t.jobs <= 1 || n <= 1 then
    (* Inline on the calling domain: this is the [-j 1] reference path,
       and trivially bit-identical to the sequential harness. *)
    Array.to_list (Array.map (fun f -> f ()) tasks)
  else begin
    let results = Array.make n None in
    let b =
      {
        b_run = (fun i -> results.(i) <- Some (tasks.(i) ()));
        b_total = n;
        b_next = 0;
        b_active = 0;
        b_failure = None;
        b_done = false;
      }
    in
    Mutex.lock t.mutex;
    if t.stopping then begin
      Mutex.unlock t.mutex;
      invalid_arg "Pool.run: pool is shut down"
    end;
    t.queue <- t.queue @ [ b ];
    Condition.broadcast t.work;
    while not b.b_done do
      Condition.wait t.idle t.mutex
    done;
    let failure = b.b_failure in
    Mutex.unlock t.mutex;
    match failure with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
        Array.to_list
          (Array.map
             (function
               | Some v -> v
               | None ->
                   (* Unreachable: every index claimed and completed. *)
                   invalid_arg "Pool.run: missing result")
             results)
  end

let default_jobs () = Domain.recommended_domain_count ()
