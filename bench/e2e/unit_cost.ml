(* Per-call host costs of public layer functions, for the traced run. Each
   row runs in a fresh child process after [Gc.compact]: one untimed
   repetition, then [reps] timed repetitions of [calls] calls, reporting
   the median ns per call with its interquartile range. A fresh process
   keeps one row's heap and caches from skewing the next. *)

open Bp_sim

let reps = 7

type row = {
  name : string;
  calls : int;
  prepare : unit -> int -> unit;
      (** untimed per-repetition set-up; returns call [i] of the repetition *)
}

let text n = String.init n (fun i -> Char.chr (97 + (i mod 26)))
let kib = text 1024
let kib64 = text 65536

let pure f = fun () _ -> ignore (Sys.opaque_identity (f ()))

let rows =
  [
    { name = "sha256_1k"; calls = 2000; prepare = pure (fun () -> Bp_crypto.Sha256.digest kib) };
    { name = "sha256_64k"; calls = 40; prepare = pure (fun () -> Bp_crypto.Sha256.digest kib64) };
    {
      name = "hmac_1k";
      calls = 2000;
      prepare = pure (fun () -> Bp_crypto.Hmac.sha256 ~key:"unit-cost-key" kib);
    };
    {
      (* Every call verifies a signature the fresh cache has not seen. *)
      name = "verify_miss_1k";
      calls = 1000;
      prepare =
        (let ks = Bp_crypto.Signer.create (Bp_util.Rng.create 7L) in
         Bp_crypto.Signer.add_identity ks "n0";
         let msgs = Array.init 1000 (fun i -> Printf.sprintf "%d;%s" i kib) in
         let sigs = Array.map (Bp_crypto.Signer.sign ks ~signer:"n0") msgs in
         fun () ->
           let cache = Bp_crypto.Verify_cache.create ks in
           fun i ->
             ignore
               (Sys.opaque_identity
                  (Bp_crypto.Verify_cache.verify cache ~signer:"n0" ~msg:msgs.(i)
                     ~signature:sigs.(i))));
    };
    { name = "crc32_64k"; calls = 200; prepare = pure (fun () -> Bp_crypto.Crc32.string kib64) };
    { name = "frame_seal_64k"; calls = 100; prepare = pure (fun () -> Bp_codec.Frame.seal kib64) };
    {
      name = "record_decode_1k";
      calls = 5000;
      prepare =
        (let enc = Blockplane.Record.encode (Blockplane.Record.Commit kib) in
         pure (fun () -> Blockplane.Record.decode enc));
    };
    {
      (* One schedule plus one step, over a heap holding 1024 far-future
         events, like a busy simulation's. *)
      name = "engine_event";
      calls = 100_000;
      prepare =
        (fun () ->
          let e = Engine.create () in
          for i = 1 to 1024 do
            ignore (Engine.schedule e ~after:(Time.of_sec (1000.0 +. float_of_int i)) ignore)
          done;
          fun _ ->
            ignore (Engine.schedule e ~after:(Time.of_ns 1) ignore);
            ignore (Engine.step e));
    };
  ]

let quartiles xs =
  let s = Bp_util.Stats.create () in
  Bp_util.Stats.add_list s xs;
  Bp_util.Stats.(percentile s 25.0, median s, percentile s 75.0)

(* Child-process side: time one row, print "median_ns iqr_ns". *)
let measure name =
  match List.find_opt (fun r -> String.equal r.name name) rows with
  | None -> Error (Printf.sprintf "unknown unit-cost row %S" name)
  | Some r ->
      Gc.compact ();
      let rep () =
        let call = r.prepare () in
        let t0 = Probe.now_ns () in
        for i = 0 to r.calls - 1 do
          call i
        done;
        float_of_int (Probe.now_ns () - t0) /. float_of_int r.calls
      in
      ignore (rep ());
      let q1, med, q3 = quartiles (List.init reps (fun _ -> rep ())) in
      Ok (med, q3 -. q1)

(* Parent side: one child per row, each waited for. *)
let run_all () =
  List.map
    (fun r ->
      let exe = Sys.executable_name in
      let ic = Unix.open_process_args_in exe [| exe; "--unit-cost"; r.name |] in
      let line = try Some (input_line ic) with End_of_file -> None in
      let status = Unix.close_process_in ic in
      let parsed =
        match (status, line) with
        | Unix.WEXITED 0, Some l -> (
            match String.split_on_char ' ' l with
            | [ m; q ] -> (
                match (float_of_string_opt m, float_of_string_opt q) with
                | Some m, Some q -> Some (m, q)
                | _ -> None)
            | _ -> None)
        | _ -> None
      in
      (r.name, parsed))
    rows
