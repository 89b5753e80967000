(* Binary artifact framing: magic + version + kind + length + payload
   + CRC-32, everything little-endian, floats as IEEE-754 bit
   patterns. Hand-rolled on Bytes — deliberately not Marshal,
   so artifacts survive compiler upgrades and corruption fails loudly
   instead of segfaulting or yielding garbage. *)

let version = 1
let magic = "LDAF"
let header_len = 12

type kind =
  | Chain
  | Dist
  | Curve
  | Table
  | Table_list
  | Request
  | Response
  | Segment
  | Chain_structure
  | Chain_plane

let kind_tag = function
  | Chain -> 1
  | Dist -> 2
  | Curve -> 3
  | Table -> 4
  | Table_list -> 5
  | Request -> 6
  | Response -> 7
  | Segment -> 8
  | Chain_structure -> 9
  | Chain_plane -> 10

let kind_of_tag = function
  | 1 -> Some Chain
  | 2 -> Some Dist
  | 3 -> Some Curve
  | 4 -> Some Table
  | 5 -> Some Table_list
  | 6 -> Some Request
  | 7 -> Some Response
  | 8 -> Some Segment
  | 9 -> Some Chain_structure
  | 10 -> Some Chain_plane
  | _ -> None

let kind_name = function
  | Chain -> "chain"
  | Dist -> "dist"
  | Curve -> "curve"
  | Table -> "table"
  | Table_list -> "tables"
  | Request -> "request"
  | Response -> "response"
  | Segment -> "segment"
  | Chain_structure -> "chain-structure"
  | Chain_plane -> "chain-plane"

(* CRC-32, IEEE 802.3 polynomial (reflected 0xEDB88320), sliced by 8
   over native ints. Table k (entries [256k, 256k + 256)) maps a byte
   to the CRC of that byte followed by k zero bytes, so one lookup per
   table advances the register over eight bytes at once. Every value
   stays below 2^32. The tables are built at start-up (a few
   microseconds), not lazily: pool domains checksum concurrently, and
   forcing one lazy value from two domains at once raises
   [Lazy.Undefined]. *)
let crc_tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.((256 * (k - 1)) + n) in
      t.((256 * k) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
    done
  done;
  t

(* The CRC of bytes [0, len) of [b]. Every table index is masked to
   [0, 2048), so the unchecked reads stay in bounds. *)
let crc32_bytes b len =
  let t = crc_tables in
  let at k i = Array.unsafe_get t ((256 * k) + i) in
  let byte i = Char.code (Bytes.unsafe_get b i) in
  let c = ref 0xFFFFFFFF in
  let body = len land lnot 7 in
  let i = ref 0 in
  while !i < body do
    let p = !i and r = !c in
    c :=
      at 7 ((r lxor byte p) land 0xFF)
      lxor at 6 (((r lsr 8) lxor byte (p + 1)) land 0xFF)
      lxor at 5 (((r lsr 16) lxor byte (p + 2)) land 0xFF)
      lxor at 4 ((r lsr 24) lxor byte (p + 3))
      lxor at 3 (byte (p + 4))
      lxor at 2 (byte (p + 5))
      lxor at 1 (byte (p + 6))
      lxor at 0 (byte (p + 7));
    i := p + 8
  done;
  for p = body to len - 1 do
    c := at 0 ((!c lxor byte p) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32 ?len s =
  let len = match len with Some l -> l | None -> String.length s in
  if len < 0 || len > String.length s then invalid_arg "Codec.crc32: bad length";
  (* read only: the bytes are never written through this alias *)
  crc32_bytes (Bytes.unsafe_of_string s) len

(* The encoder builds the whole frame in place: bytes [0, header_len)
   are left for the header, the payload follows from [header_len], and
   every growth keeps 4 bytes spare for the CRC. A growth takes the
   larger of double the size and exactly what is needed, so a payload
   that ends in one large array (a trajectory, a distribution) leaves
   the buffer exactly frame-sized and [frame] returns it uncopied. *)
module Enc = struct
  type t = { mutable buf : Bytes.t; mutable pos : int }

  let create () = { buf = Bytes.create 256; pos = header_len }

  let reserve b n =
    let need = b.pos + n + 4 in
    if need > Bytes.length b.buf then begin
      let buf = Bytes.create (Int.max need (2 * Bytes.length b.buf)) in
      Bytes.blit b.buf 0 buf 0 b.pos;
      b.buf <- buf
    end

  let u8 b v =
    if v < 0 || v > 0xFF then invalid_arg "Codec.Enc.u8: out of range";
    reserve b 1;
    Bytes.set_uint8 b.buf b.pos v;
    b.pos <- b.pos + 1

  let u32 b v =
    if v < 0 || v > 0xFFFFFFFF then invalid_arg "Codec.Enc.u32: out of range";
    reserve b 4;
    Bytes.set_int32_le b.buf b.pos (Int32.of_int v);
    b.pos <- b.pos + 4

  let i64 b v =
    reserve b 8;
    Bytes.set_int64_le b.buf b.pos v;
    b.pos <- b.pos + 8

  let int_ b v = i64 b (Int64.of_int v)
  let float b v = i64 b (Int64.bits_of_float v)

  let string b s =
    let n = String.length s in
    u32 b n;
    reserve b n;
    Bytes.blit_string s 0 b.buf b.pos n;
    b.pos <- b.pos + n

  let int_array b a =
    let n = Array.length a in
    u32 b n;
    reserve b (8 * n);
    for i = 0 to n - 1 do
      Bytes.set_int64_le b.buf (b.pos + (8 * i)) (Int64.of_int a.(i))
    done;
    b.pos <- b.pos + (8 * n)

  let float_array b a =
    let n = Array.length a in
    u32 b n;
    reserve b (8 * n);
    for i = 0 to n - 1 do
      Bytes.set_int64_le b.buf (b.pos + (8 * i)) (Int64.bits_of_float a.(i))
    done;
    b.pos <- b.pos + (8 * n)

  let list b item xs =
    u32 b (List.length xs);
    List.iter (item b) xs
end

module Dec = struct
  type t = { s : string; mutable pos : int; limit : int }

  (* Internal control flow only: [unframe] catches it and returns
     [Error], so corruption never escapes the module as an exception. *)
  exception Corrupt of string

  let fail msg = raise (Corrupt msg)

  let need d n =
    if n < 0 || d.limit - d.pos < n then
      fail
        (Printf.sprintf "truncated payload: need %d byte(s) at offset %d" n
           (d.pos - header_len))

  let u8 d =
    need d 1;
    let v = Char.code d.s.[d.pos] in
    d.pos <- d.pos + 1;
    v

  let u32 d =
    need d 4;
    let v = Int32.to_int (String.get_int32_le d.s d.pos) land 0xFFFFFFFF in
    d.pos <- d.pos + 4;
    v

  let i64 d =
    need d 8;
    let v = String.get_int64_le d.s d.pos in
    d.pos <- d.pos + 8;
    v

  let int_ d =
    let v = i64 d in
    let n = Int64.to_int v in
    if Int64.of_int n <> v then fail "integer out of native range";
    n

  let float d = Int64.float_of_bits (i64 d)

  let string d =
    let n = u32 d in
    need d n;
    let s = String.sub d.s d.pos n in
    d.pos <- d.pos + n;
    s

  let int_array d =
    let n = u32 d in
    need d (8 * n);
    let a = Array.make n 0 in
    for i = 0 to n - 1 do
      let v = String.get_int64_le d.s (d.pos + (8 * i)) in
      let x = Int64.to_int v in
      if Int64.of_int x <> v then fail "integer out of native range";
      a.(i) <- x
    done;
    d.pos <- d.pos + (8 * n);
    a

  let float_array d =
    let n = u32 d in
    need d (8 * n);
    let a = Array.make n 0. in
    for i = 0 to n - 1 do
      a.(i) <- Int64.float_of_bits (String.get_int64_le d.s (d.pos + (8 * i)))
    done;
    d.pos <- d.pos + (8 * n);
    a

  let list d item =
    let n = u32 d in
    let acc = ref [] in
    for _ = 1 to n do
      acc := item d :: !acc
    done;
    List.rev !acc
end

let max_payload_bytes = 0xFFFFFFFF

let frame ~kind write =
  let e = Enc.create () in
  write e;
  let len = e.Enc.pos - header_len in
  if len > max_payload_bytes then
    invalid_arg
      (Printf.sprintf
         "Codec.frame: %d-byte payload exceeds the u32 frame bound (%d)" len
         max_payload_bytes);
  (* Header and CRC go around the payload in the encoder's own buffer,
     which always has the 4 CRC bytes spare. *)
  let out = e.Enc.buf in
  Bytes.blit_string magic 0 out 0 4;
  Bytes.set_uint16_le out 4 version;
  Bytes.set_uint16_le out 6 (kind_tag kind);
  Bytes.set_int32_le out 8 (Int32.of_int len);
  let crc = crc32_bytes out e.Enc.pos in
  Bytes.set_int32_le out e.Enc.pos (Int32.of_int crc);
  let total = e.Enc.pos + 4 in
  if total = Bytes.length out then Bytes.unsafe_to_string out
  else Bytes.sub_string out 0 total

(* Validate everything up to (but not including) the payload bytes:
   magic, version, kind tag, declared length vs physical length, and
   the trailing CRC over header + payload. *)
let check_frame s =
  let total = String.length s in
  if total < header_len + 4 then
    Error (Printf.sprintf "artifact too short (%d bytes)" total)
  else if String.sub s 0 4 <> magic then Error "bad magic: not a logitdyn artifact"
  else
    let ver = String.get_uint16_le s 4 in
    if ver <> version then
      Error
        (Printf.sprintf "unsupported format version %d (this build reads %d)" ver
           version)
    else
      let tag = String.get_uint16_le s 6 in
      match kind_of_tag tag with
      | None -> Error (Printf.sprintf "unknown payload kind tag %d" tag)
      | Some k ->
          let len = Int32.to_int (String.get_int32_le s 8) land 0xFFFFFFFF in
          if total <> header_len + len + 4 then
            Error
              (Printf.sprintf
                 "length mismatch: header declares %d payload byte(s), file \
                  has %d"
                 len
                 (total - header_len - 4))
          else
            let stored =
              Int32.to_int (String.get_int32_le s (header_len + len))
              land 0xFFFFFFFF
            in
            let computed = crc32 ~len:(header_len + len) s in
            if stored <> computed then
              Error
                (Printf.sprintf "checksum mismatch (stored %08x, computed %08x)"
                   stored computed)
            else Ok (k, len)

let inspect s = check_frame s

let unframe ~kind s read =
  match check_frame s with
  | Error _ as e -> e
  | Ok (k, len) ->
      if k <> kind then
        Error
          (Printf.sprintf "artifact kind is %s, expected %s" (kind_name k)
             (kind_name kind))
      else begin
        let d = { Dec.s; pos = header_len; limit = header_len + len } in
        match read d with
        | v ->
            if d.Dec.pos <> d.Dec.limit then
              Error
                (Printf.sprintf "%d trailing payload byte(s) left undecoded"
                   (d.Dec.limit - d.Dec.pos))
            else Ok v
        | exception Dec.Corrupt msg -> Error msg
      end

let encode_dist a = frame ~kind:Dist (fun b -> Enc.float_array b a)
let decode_dist s = unframe ~kind:Dist s Dec.float_array
let encode_curve a = frame ~kind:Curve (fun b -> Enc.float_array b a)
let decode_curve s = unframe ~kind:Curve s Dec.float_array
