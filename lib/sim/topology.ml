type t = {
  names : string array;
  rtt_ms : float array array;
  intra_rtt_ms : float;
  bandwidth_bps : float; (* bytes per second *)
  one_way : Time.t array array; (* half of [rtt] *)
}

let rtt_of ~rtt_ms ~intra_rtt_ms i j =
  if i = j then Time.of_ms intra_rtt_ms else Time.of_ms rtt_ms.(i).(j)

let make ~names ~rtt_ms ?(intra_rtt_ms = 0.5) ?(bandwidth_mbps = 640.0) () =
  let n = Array.length names in
  if Array.length rtt_ms <> n then invalid_arg "Topology.make: matrix size";
  Array.iteri
    (fun i row ->
      if Array.length row <> n then invalid_arg "Topology.make: matrix not square";
      if row.(i) <> 0.0 then invalid_arg "Topology.make: nonzero diagonal";
      Array.iteri
        (fun j v ->
          if v < 0.0 then invalid_arg "Topology.make: negative RTT";
          if rtt_ms.(j).(i) <> v then invalid_arg "Topology.make: asymmetric matrix")
        row)
    rtt_ms;
  if intra_rtt_ms <= 0.0 then invalid_arg "Topology.make: intra_rtt_ms";
  if bandwidth_mbps <= 0.0 then invalid_arg "Topology.make: bandwidth";
  {
    names;
    rtt_ms = Array.map Array.copy rtt_ms;
    intra_rtt_ms;
    bandwidth_bps = bandwidth_mbps *. 1e6;
    one_way =
      Array.init n (fun i ->
          Array.init n (fun j -> Time.scale (rtt_of ~rtt_ms ~intra_rtt_ms i j) 0.5));
  }

(* Table I of the paper, in milliseconds. Order: C, O, V, I. *)
let dc_california = 0
let dc_oregon = 1
let dc_virginia = 2
let dc_ireland = 3

let aws_paper =
  make
    ~names:[| "California"; "Oregon"; "Virginia"; "Ireland" |]
    ~rtt_ms:
      [|
        [| 0.0; 19.0; 61.0; 130.0 |];
        [| 19.0; 0.0; 79.0; 132.0 |];
        [| 61.0; 79.0; 0.0; 70.0 |];
        [| 130.0; 132.0; 70.0; 0.0 |];
      |]
    ()

let tiled ?(metro_rtt_ms = 4.0) base ~sites =
  if sites < 1 then invalid_arg "Topology.tiled: sites must be positive";
  if metro_rtt_ms <= 0.0 then invalid_arg "Topology.tiled: metro_rtt_ms";
  let k = Array.length base.names in
  let names =
    Array.init sites (fun i ->
        if i < k then base.names.(i)
        else Printf.sprintf "%s-%d" base.names.(i mod k) (i / k))
  in
  let rtt_ms =
    Array.init sites (fun i ->
        Array.init sites (fun j ->
            if i = j then 0.0
            else if i mod k = j mod k then metro_rtt_ms
            else base.rtt_ms.(i mod k).(j mod k)))
  in
  make ~names ~rtt_ms ~intra_rtt_ms:base.intra_rtt_ms
    ~bandwidth_mbps:(base.bandwidth_bps /. 1e6) ()

let num_dcs t = Array.length t.names

let name t i = t.names.(i)

let dc_of_name t s =
  let found = ref None in
  Array.iteri (fun i n -> if String.equal n s then found := Some i) t.names;
  !found

let rtt t i j = rtt_of ~rtt_ms:t.rtt_ms ~intra_rtt_ms:t.intra_rtt_ms i j

let one_way t i j = t.one_way.(i).(j)

(* [Time.of_sec] of the same quotient, written out so no boxed float
   crosses a call on the per-send path. *)
let transfer_time t bytes =
  Time.of_ns
    (int_of_float ((float_of_int bytes /. t.bandwidth_bps *. 1e9) +. 0.5))

let neighbors_by_rtt t i =
  let others = List.filter (fun j -> j <> i) (List.init (num_dcs t) Fun.id) in
  List.sort
    (fun a b -> compare t.rtt_ms.(i).(a) t.rtt_ms.(i).(b))
    others

let closest_majority_rtt t i =
  let n = num_dcs t in
  let majority = (n / 2) + 1 in
  (* The site itself counts; we need [majority - 1] other sites. *)
  let needed = majority - 1 in
  if needed = 0 then Time.zero
  else begin
    let sorted = neighbors_by_rtt t i in
    rtt t i (List.nth sorted (needed - 1))
  end
