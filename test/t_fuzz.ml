(* Decoder totality: every wire decoder in the repository must return
   [Error] on malformed input — never raise, never loop — because
   byzantine peers control every byte that arrives. *)

let never_raises name decode =
  QCheck.Test.make ~name ~count:1000
    QCheck.(string_of_size Gen.(0 -- 300))
    (fun s ->
      match decode s with
      | Ok _ | Error _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "%s raised %s" name (Printexc.to_string e))

let mutated_roundtrip name encode decode sample =
  (* Flipping any single byte of a valid encoding must still decode
     totally (possibly to Ok of something else — framing catches
     corruption at a lower layer; here we only require totality). *)
  let encoded = encode sample in
  QCheck.Test.make ~name ~count:500
    QCheck.(pair (int_bound (String.length encoded - 1)) (int_bound 255))
    (fun (i, x) ->
      let b = Bytes.of_string encoded in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (x lor 1)));
      match decode (Bytes.to_string b) with
      | Ok _ | Error _ -> true
      | exception e ->
          QCheck.Test.fail_reportf "%s raised %s" name (Printexc.to_string e))

let sample_record =
  Blockplane.Record.Recv
    {
      Blockplane.Record.src = 1;
      tdest = 0;
      tcomm_seq = 3;
      log_pos = 9;
      tpayload = "payload";
      proofs = [ ("u1/n1.0", "sig") ];
      geo_proofs = [ (2, [ ("u2/n2.0", "gsig") ]) ];
    }

let sample_proto =
  Blockplane.Proto.Mirror_proof
    { owner = 1; pos = 4; participant = 2; sigs = [ ("u2/n2.1", "s") ] }

let sample_paxos =
  Bp_paxos.Msg.Promise
    {
      ballot = { Bp_paxos.Ballot.round = 3; node = 1 };
      ok = true;
      accepted =
        [ { Bp_paxos.Msg.instance = 0; ballot = Bp_paxos.Ballot.zero; value = "v" } ];
    }

(* Shard's wrapper decodes the bodies of ["__xs:"] steps and ["__xsm:"]
   2PC messages that byzantine nodes write; judging and executing any
   such record must not raise. One copy of the wrapper per property, so
   the evidence of earlier inputs is in play. *)
let shard_judge () =
  let app, _ =
    Blockplane.Shard.instance (module Blockplane.App.Null) ~participant:1 ~n_participants:4
  in
  fun record ->
    ignore (Blockplane.App.verify app record);
    Blockplane.App.apply app ~hash:Fun.id record;
    Ok ()

let shard_step_judge () =
  let judge = shard_judge () in
  fun payload -> judge (Blockplane.Record.Commit payload)

let shard_msg_judge () =
  let judge = shard_judge () in
  fun payload ->
    let open Blockplane.Record in
    Result.bind (judge (Comm { dest = 0; comm_seq = 0; payload })) @@ fun () ->
    judge
      (Recv
         { src = 0; tdest = 1; tcomm_seq = 0; log_pos = 0; tpayload = payload; proofs = [];
           geo_proofs = [] })

let sample_step =
  Blockplane.Shard.xs_payload
    (Blockplane.Shard.Xs_prepare { txid = "x7"; ops = [ ("k", "op"); ("k2", "op2") ] })

(* A [Prepare] from coordinator 0, as [Shard] encodes it. *)
let sample_msg =
  "__xsm:"
  ^ Bp_codec.Wire.encode (fun e ->
        Bp_codec.Wire.u8 e 0;
        Bp_codec.Wire.string e "x7";
        Bp_codec.Wire.varint e 0;
        Bp_codec.Wire.list e
          (fun (k, op) ->
            Bp_codec.Wire.string e k;
            Bp_codec.Wire.string e op)
          [ ("k", "op") ])

let suite =
  [
    ( "fuzz.decoders",
      List.map QCheck_alcotest.to_alcotest
        [
          never_raises "record decoder total" Blockplane.Record.decode;
          never_raises "proto decoder total" Blockplane.Proto.decode;
          never_raises "pbft body decoder total" Bp_pbft.Msg.decode_body;
          never_raises "paxos decoder total" Bp_paxos.Msg.decode;
          never_raises "frame decoder total" (fun s ->
              match Bp_codec.Frame.unseal s with
              | Ok p -> Ok p
              | Error _ -> Error "bad");
          mutated_roundtrip "record survives bit flips" Blockplane.Record.encode
            Blockplane.Record.decode sample_record;
          mutated_roundtrip "proto survives bit flips" Blockplane.Proto.encode
            Blockplane.Proto.decode sample_proto;
          mutated_roundtrip "paxos survives bit flips" Bp_paxos.Msg.encode
            Bp_paxos.Msg.decode sample_paxos;
          never_raises "shard step decoder total"
            (let judge = shard_step_judge () in
             fun s -> judge ("__xs:" ^ s));
          never_raises "shard message decoder total"
            (let judge = shard_msg_judge () in
             fun s -> judge ("__xsm:" ^ s));
          mutated_roundtrip "shard step survives bit flips" Fun.id (shard_step_judge ())
            sample_step;
          mutated_roundtrip "shard message survives bit flips" Fun.id (shard_msg_judge ())
            sample_msg;
        ] );
  ]
