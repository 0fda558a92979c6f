(* R6-domainescape fixtures: closures handed to the domain pool that
   capture mutable state, each paired with a clean twin showing the
   sanctioned snapshot-at-submit shape. Nothing here is ever executed —
   pools are only created inside function bodies that no test calls. *)

open Bp_parallel

let shared_counter = ref 0
let shared_tbl : (string, int) Hashtbl.t = Hashtbl.create 16

type cell = { mutable value : int }

(* BAD: the job reads a module-level ref — not a submitting-scope
   snapshot; another domain (or the submitter) may write it meanwhile. *)
let bad_ref_read () = Pool.map ~jobs:2 [ (fun () -> !shared_counter) ]

(* BAD: the job writes a captured mutable record field. *)
let bad_field_write c = Pool.map ~jobs:2 [ (fun () -> c.value <- 1) ]

(* BAD: the job reads a captured hashtable; hashtables are never a
   recognized snapshot. *)
let bad_hashtbl_read () =
  Pool.map ~jobs:2 [ (fun () -> Hashtbl.find_opt shared_tbl "k") ]

(* BAD: thunks accumulated through a list ref are still sliced — the
   leaky closure inside is found. *)
let bad_accumulated_thunks pool =
  let pending = ref [] in
  pending := (fun () -> !shared_counter) :: !pending;
  let thunks = List.rev !pending in
  Pool.run pool thunks

(* OK: capture an immutable snapshot of the value, taken before submit. *)
let good_value_snapshot () =
  let v = !shared_counter in
  Pool.map ~jobs:2 [ (fun () -> v + 1) ]

(* OK: a ref constructed in the submitting scope is a recognized
   snapshot. *)
let good_local_ref pool =
  let acc = ref 5 in
  Pool.run pool [ (fun () -> !acc) ]

(* OK: job-local mutable state never escapes the worker. *)
let good_job_local_state () =
  Pool.map ~jobs:2
    [
      (fun () ->
        let c = ref 0 in
        incr c;
        !c);
    ]

(* OK: the hashtable is copied to an immutable list before submit. *)
let good_tbl_snapshot () =
  let snap =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) shared_tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Pool.map ~jobs:2 [ (fun () -> List.length snap) ]

(* Excused: an audited exception, suppressed at the site. *)
let excused_ref_read () =
  Pool.map ~jobs:2
    [ (fun () -> !shared_counter) [@bplint.allow "R6-domainescape"] ]
