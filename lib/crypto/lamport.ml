let bits = 256
let chunk = 32

type secret_key = { zero : string array; one : string array }
type public_key = string

(* A signature carries, per digest bit, the revealed preimage and the hash
   of the counterpart preimage, so the verifier can recompute the public
   digest without the full public key. *)
type signature = { revealed : string array; other_hash : string array }

let keygen rng =
  let fresh () =
    Array.init bits (fun _ -> Bytes.to_string (Bp_util.Rng.bytes rng chunk))
  in
  let zero = fresh () and one = fresh () in
  let buf = Buffer.create (2 * bits * chunk) in
  for i = 0 to bits - 1 do
    Buffer.add_string buf (Sha256.digest zero.(i));
    Buffer.add_string buf (Sha256.digest one.(i))
  done;
  ({ zero; one }, Sha256.digest (Buffer.contents buf))

let bit_of digest i = (Char.code digest.[i / 8] lsr (7 - (i mod 8))) land 1

let sign sk msg =
  let d = Sha256.digest msg in
  let revealed = Array.make bits "" and other_hash = Array.make bits "" in
  for i = 0 to bits - 1 do
    if bit_of d i = 0 then begin
      revealed.(i) <- sk.zero.(i);
      other_hash.(i) <- Sha256.digest sk.one.(i)
    end
    else begin
      revealed.(i) <- sk.one.(i);
      other_hash.(i) <- Sha256.digest sk.zero.(i)
    end
  done;
  { revealed; other_hash }

let verify pk msg { revealed; other_hash } =
  Array.length revealed = bits
  && Array.length other_hash = bits
  && begin
       let d = Sha256.digest msg in
       let buf = Buffer.create (2 * bits * chunk) in
       (try
          for i = 0 to bits - 1 do
            if String.length revealed.(i) <> chunk
               || String.length other_hash.(i) <> chunk
            then raise Exit;
            let revealed_hash = Sha256.digest revealed.(i) in
            if bit_of d i = 0 then begin
              Buffer.add_string buf revealed_hash;
              Buffer.add_string buf other_hash.(i)
            end
            else begin
              Buffer.add_string buf other_hash.(i);
              Buffer.add_string buf revealed_hash
            end
          done;
          true
        with Exit -> false)
       && String.equal (Sha256.digest (Buffer.contents buf)) pk
     end

let encode { revealed; other_hash } =
  let buf = Buffer.create (2 * bits * chunk) in
  Array.iter (Buffer.add_string buf) revealed;
  Array.iter (Buffer.add_string buf) other_hash;
  Buffer.contents buf

let decode s =
  if String.length s <> 2 * bits * chunk then None
  else begin
    let part base i = String.sub s (base + (i * chunk)) chunk in
    let revealed = Array.init bits (part 0) in
    let other_hash = Array.init bits (part (bits * chunk)) in
    Some { revealed; other_hash }
  end
