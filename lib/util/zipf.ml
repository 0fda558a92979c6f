(* Rejection-inversion sampling for the Zipf distribution (Hörmann &
   Derflinger, "Rejection-inversion to generate variates from monotone
   discrete distributions", ACM TOMACS 1996). O(1) expected draws per
   sample at any population size and exponent — the naive
   inverse-CDF-table approach is O(n) setup and O(log n) per sample,
   untenable at the 10^5..10^7 modeled-client populations the load
   harness targets. *)

type t = {
  n : int;
  s : float;
  h_x1 : float;  (* H(1.5) - 1 *)
  h_n : float;  (* H(n + 0.5) *)
  cut : float;  (* s_const: acceptance shortcut threshold *)
}

(* log(1+x)/x, numerically stable near 0. *)
let helper1 x =
  if Float.abs x > 1e-8 then Stdlib.log1p x /. x
  else 1.0 -. (x /. 2.0) +. (x *. x /. 3.0) -. (x *. x *. x /. 4.0)

(* (e^x - 1)/x, numerically stable near 0. *)
let helper2 x =
  if Float.abs x > 1e-8 then Stdlib.expm1 x /. x
  else 1.0 +. (x /. 2.0) +. (x *. x /. 6.0) +. (x *. x *. x /. 24.0)

(* H(x) = integral of x^(-s): (x^(1-s) - 1)/(1-s), log x at s = 1. *)
let h_integral ~s x =
  let log_x = Stdlib.log x in
  helper2 ((1.0 -. s) *. log_x) *. log_x

let h ~s x = Stdlib.exp (-.s *. Stdlib.log x)

let h_integral_inverse ~s x =
  let t = x *. (1.0 -. s) in
  (* Clamp: floating error can push t below -1 where the inverse power
     is undefined; -1 maps back to the distribution's lower edge. A NaN
     also clamps to -1. *)
  let t = if t >= -1.0 then t else -1.0 in
  Stdlib.exp (helper1 t *. x)

let create ~n ~s =
  if n < 1 then invalid_arg "Zipf.create: population must be >= 1";
  if s < 0.0 || not (Float.is_finite s) then
    invalid_arg "Zipf.create: exponent must be finite and >= 0";
  {
    n;
    s;
    h_x1 = h_integral ~s 1.5 -. 1.0;
    h_n = h_integral ~s (float_of_int n +. 0.5);
    cut = 2.0 -. h_integral_inverse ~s (h_integral ~s 2.5 -. h ~s 2.0);
  }


let sample t rng =
  if t.n = 1 then 0
  else begin
    let rec draw () =
      let u = t.h_n +. (Rng.float rng 1.0 *. (t.h_x1 -. t.h_n)) in
      let x = h_integral_inverse ~s:t.s u in
      let k = int_of_float (x +. 0.5) in
      let k = if k < 1 then 1 else if k > t.n then t.n else k in
      (* Accept k when x landed within the hat's shortcut band, or by
         the exact rejection test against the histogram bar at k. *)
      if
        float_of_int k -. x <= t.cut
        || u >= h_integral ~s:t.s (float_of_int k +. 0.5) -. h ~s:t.s (float_of_int k)
      then k - 1
      else draw ()
    in
    draw ()
  end
