type t = {
  mutable data : float array;
  mutable len : int;
  mutable sorted : bool;
}

let create () = { data = Array.make 16 0.0; len = 0; sorted = true }

let add t x =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0.0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1;
  t.sorted <- false

let add_list t xs = List.iter (add t) xs

let count t = t.len

let is_empty t = t.len = 0

let require_nonempty t name =
  if t.len = 0 then invalid_arg (Printf.sprintf "Stats.%s: empty" name)

let ensure_sorted t =
  if not t.sorted then begin
    let live = Array.sub t.data 0 t.len in
    Array.sort compare live;
    Array.blit live 0 t.data 0 t.len;
    t.sorted <- true
  end

let total t =
  let s = ref 0.0 in
  for i = 0 to t.len - 1 do
    s := !s +. t.data.(i)
  done;
  !s

let mean t =
  require_nonempty t "mean";
  total t /. float_of_int t.len

let stddev t =
  if t.len < 2 then 0.0
  else begin
    let m = mean t in
    let s = ref 0.0 in
    for i = 0 to t.len - 1 do
      let d = t.data.(i) -. m in
      s := !s +. (d *. d)
    done;
    sqrt (!s /. float_of_int (t.len - 1))
  end

let min t =
  require_nonempty t "min";
  ensure_sorted t;
  t.data.(0)

let max t =
  require_nonempty t "max";
  ensure_sorted t;
  t.data.(t.len - 1)

let percentile t p =
  require_nonempty t "percentile";
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  ensure_sorted t;
  let rank = p /. 100.0 *. float_of_int (t.len - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then t.data.(lo)
  else begin
    let frac = rank -. float_of_int lo in
    t.data.(lo) +. (frac *. (t.data.(hi) -. t.data.(lo)))
  end

let median t = percentile t 50.0

let samples t =
  ensure_sorted t;
  Array.sub t.data 0 t.len

type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  p50 : float;
  p95 : float;
  p99 : float;
  max : float;
}

let summarize t =
  require_nonempty t "summarize";
  {
    n = count t;
    mean = mean t;
    stddev = stddev t;
    min = min t;
    p50 = percentile t 50.0;
    p95 = percentile t 95.0;
    p99 = percentile t 99.0;
    max = max t;
  }
