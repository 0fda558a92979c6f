(* R6-planescape fixture: the shape of Exp_costs.costs_plan with one
   planted escape. Nothing here is ever executed. *)

open Bp_harness

let costs_task i () = [ string_of_int i ]

(* BAD: every task increments one ref bound outside the tasks, so what
   each task sees depends on how Pool.run schedules them. *)
let costs_plan () =
  let shared = ref 0 in
  Runner.Plan
    {
      tasks =
        List.map
          (fun t () ->
            incr shared;
            t ())
          [ costs_task 0; costs_task 1 ];
      merge = (fun _ -> []);
    }

(* OK: state created inside a task, and written by closures nested in
   it, is that task's own. *)
let local_plan () =
  Runner.Plan
    {
      tasks =
        [
          (fun () ->
            let n = ref 0 in
            let bump () = incr n in
            bump ();
            [ string_of_int !n ]);
        ];
      merge = (fun _ -> []);
    }

(* Not checked: this item builds no plan. *)
let counter () =
  let c = ref 0 in
  fun () ->
    incr c;
    !c
