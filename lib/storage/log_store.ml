type entry = { index : int; payload : string; digest : string }

type t = { mutable entries : entry array; mutable len : int }

let genesis = Bp_crypto.Sha256.digest "blockplane-genesis"

let create () =
  { entries = Array.make 16 { index = -1; payload = ""; digest = "" }; len = 0 }

let length t = t.len

let last_digest t = if t.len = 0 then genesis else t.entries.(t.len - 1).digest

(* The chain hashes the payload's digest, not the payload: a caller that
   already holds H(payload) (a unit node's memoized op digest) links an
   entry at the cost of one 64-byte input, whatever the payload size. *)
let chain prev payload_digest =
  Bp_crypto.Sha256.digest_list [ prev; payload_digest ]

let append t ~payload_digest payload =
  let e =
    { index = t.len; payload; digest = chain (last_digest t) payload_digest }
  in
  if t.len = Array.length t.entries then begin
    let bigger = Array.make (2 * t.len) e in
    Array.blit t.entries 0 bigger 0 t.len;
    t.entries <- bigger
  end;
  t.entries.(t.len) <- e;
  t.len <- t.len + 1;
  e

let get t i = if i < 0 || i >= t.len then None else Some t.entries.(i)

let payload_exn t i =
  match get t i with
  | Some e -> e.payload
  | None -> invalid_arg (Printf.sprintf "Log_store.payload_exn: index %d" i)

let digest_at t n =
  if n < 0 || n > t.len then invalid_arg "Log_store.digest_at";
  if n = 0 then genesis else t.entries.(n - 1).digest

let iter_from t start f =
  for i = Int.max 0 start to t.len - 1 do
    f t.entries.(i)
  done

let verify_chain t =
  let rec go i prev =
    if i >= t.len then true
    else begin
      let e = t.entries.(i) in
      String.equal e.digest (chain prev (Bp_crypto.Sha256.digest e.payload))
      && go (i + 1) e.digest
    end
  in
  go 0 genesis

let tamper t i payload =
  match get t i with
  | None -> invalid_arg "Log_store.tamper"
  | Some e -> t.entries.(i) <- { e with payload }
