type public_key = string

type signer = {
  secrets : Lamport.secret_key array;
  leaves : string array; (* one-time public keys, the Merkle leaves *)
  mutable next : int;
}

type signature = {
  leaf_pk : Lamport.public_key;
  ots : Lamport.signature;
  proof : Merkle.proof;
}

let keygen ?(height = 6) rng =
  if height < 0 || height > 20 then invalid_arg "Merkle_sig.keygen: height";
  let n = 1 lsl height in
  let pairs = Array.init n (fun _ -> Lamport.keygen rng) in
  let secrets = Array.map fst pairs in
  let leaves = Array.map snd pairs in
  let root = Merkle.root (Array.to_list leaves) in
  ({ secrets; leaves; next = 0 }, root)

let capacity t = Array.length t.secrets - t.next

let sign t msg =
  if t.next >= Array.length t.secrets then
    failwith "Merkle_sig.sign: one-time key pool exhausted";
  let i = t.next in
  t.next <- i + 1;
  let ots = Lamport.sign t.secrets.(i) msg in
  let proof = Merkle.prove (Array.to_list t.leaves) i in
  { leaf_pk = t.leaves.(i); ots; proof }

let verify root msg { leaf_pk; ots; proof } =
  Merkle.verify ~root ~leaf:leaf_pk proof && Lamport.verify leaf_pk msg ots

let encode { leaf_pk; ots; proof } =
  let buf = Buffer.create 1024 in
  let add_u16 n =
    Buffer.add_char buf (Char.chr ((n lsr 8) land 0xff));
    Buffer.add_char buf (Char.chr (n land 0xff))
  in
  add_u16 proof.Merkle.leaf_index;
  add_u16 (List.length proof.Merkle.path);
  List.iter
    (fun (h, side) ->
      Buffer.add_char buf (match side with `Left -> 'L' | `Right -> 'R');
      Buffer.add_string buf h)
    proof.Merkle.path;
  Buffer.add_string buf leaf_pk;
  Buffer.add_string buf (Lamport.encode ots);
  Buffer.contents buf

let decode s =
  let u16 off = (Char.code s.[off] lsl 8) lor Char.code s.[off + 1] in
  try
    let leaf_index = u16 0 in
    let plen = u16 2 in
    let pos = ref 4 in
    let path =
      List.init plen (fun _ ->
          let side =
            match s.[!pos] with
            | 'L' -> `Left
            | 'R' -> `Right
            | _ -> raise Exit
          in
          let h = String.sub s (!pos + 1) 32 in
          pos := !pos + 33;
          (h, side))
    in
    let leaf_pk = String.sub s !pos 32 in
    pos := !pos + 32;
    let rest = String.sub s !pos (String.length s - !pos) in
    match Lamport.decode rest with
    | None -> None
    | Some ots -> Some { leaf_pk; ots; proof = { Merkle.leaf_index; path } }
  with
  (* Exit: bad side byte; Invalid_argument: out-of-bounds [s.[i]] or
     [String.sub] on a truncated signature. Anything else is a bug and
     must propagate. *)
  | Exit | Invalid_argument _ ->
    None
