(* No state between calls: the image is built from the caller's payload
   strings (a unit node's Local Log entries), and each record's CRC is
   computed in the pass that writes its frame. *)

let frame_size payload = Bp_codec.Frame.overhead + String.length payload

let image payloads =
  let size = List.fold_left (fun n p -> n + frame_size p) 0 payloads in
  let image = Bytes.create size in
  ignore
    (List.fold_left
       (fun off p ->
         Bp_codec.Frame.seal_into image ~off p;
         off + frame_size p)
       0 payloads);
  Bytes.unsafe_to_string image

let recover image =
  let len = String.length image in
  let rec scan acc off =
    if off >= len then (List.rev acc, 0)
    else
      match Bp_codec.Frame.unseal_prefix image ~off with
      | Ok (payload, consumed) -> scan (payload :: acc) (off + consumed)
      | Error (`Corrupt | `Malformed) -> (List.rev acc, len - off)
  in
  scan [] 0
