(* Fork-join over OCaml 5 domains — with the stats mutex in
   lib/crypto/verify_batch, the one place in the tree where multicore
   primitives are allowed (bplint R2-domain). The caller and its helpers
   claim task indices from one atomic counter and store each outcome in
   the slot of its index; the caller reads the slots after joining every
   helper, so scheduling order never leaks into results.

   Indices are claimed in increasing order, so when task [i] fails every
   lower index has already been claimed and runs to its end: the
   lowest-index failure is always among the outcomes, and it is the one
   a sequential run would have raised. *)

let run ~jobs tasks =
  let n = List.length tasks in
  if jobs <= 1 || n <= 1 then
    (* Inline on the calling domain: this is the [-j 1] reference path. *)
    List.map (fun f -> f ()) tasks
  else begin
    let tasks = Array.of_list tasks in
    let outcomes = Array.make n None in
    let next = Atomic.make 0 in
    let failed = Atomic.make false in
    let rec work () =
      if not (Atomic.get failed) then begin
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          (match tasks.(i) () with
          | v -> outcomes.(i) <- Some (Ok v)
          | exception e ->
              outcomes.(i) <- Some (Error (e, Printexc.get_raw_backtrace ()));
              Atomic.set failed true);
          work ()
        end
      end
    in
    (* A helper the runtime refuses to start is not retried: the domains
       already going drain the tasks, with the same results. *)
    let rec spawn k =
      if k = 0 then []
      else
        match Domain.spawn work with
        | d -> d :: spawn (k - 1)
        | exception Failure _ -> []
    in
    let helpers = spawn (Int.min jobs n - 1) in
    work ();
    List.iter Domain.join helpers;
    (* Every claimed task ran to its end, and the claimed indices are a
       prefix that stops short of [n] only after a failure: scanning in
       order meets the first failure before any empty slot. *)
    List.init n (fun i ->
        match outcomes.(i) with
        | Some (Ok v) -> v
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> invalid_arg "Pool.run: task never ran")
  end

let default_jobs () = Domain.recommended_domain_count ()
