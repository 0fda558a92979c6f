(* R8-harnessglobal fixtures: module-level mutable state, each bad_*
   binding paired with a clean good_* twin that allocates the same state
   inside the function that owns it (or binds an immutable value). *)

type cell = { mutable hits : int }
type point = { x : int; y : int }

(* BAD: each allocates mutable state once, at module initialisation. *)
let bad_ref = ref 0
let bad_table : (string, int) Hashtbl.t = Hashtbl.create 16
let bad_array = Array.make 8 0
let bad_buffer = Buffer.create 64
let bad_atomic = Atomic.make 0
let bad_record = { hits = 0 }

(* BAD: a closure over state allocated when the module loads. *)
let bad_counter =
  let n = ref 0 in
  fun () ->
    incr n;
    !n

(* Site-level escape hatch: suppressed by the allow attribute. *)
let excused = (ref 0 [@bplint.allow "R8-harnessglobal"])

(* OK: the same allocations, one per call. *)
let good_ref () = ref 0
let good_table () : (string, int) Hashtbl.t = Hashtbl.create 16
let good_array n = Array.make n 0
let good_buffer () = Buffer.create 64
let good_atomic () = Atomic.make 0
let good_record () = { hits = 0 }

let good_counter () =
  let n = ref 0 in
  fun () ->
    incr n;
    !n

(* OK: immutable values at module level. *)
let good_origin = { x = 0; y = 0 }
let good_list = [ 1; 2; 3 ]
