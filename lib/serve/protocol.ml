(* Wire types and codecs for the logitdynd socket protocol.

   A message on the wire is a u32 little-endian byte length followed by
   exactly that many bytes of a Store.Codec frame (magic, version,
   kind tag Request/Response, payload, CRC-32) — the same framing
   discipline as on-disk artifacts, so a corrupt or truncated message
   is rejected with a description instead of being misread, and
   nothing here goes near Marshal. *)

module Codec = Store.Codec

type query =
  | Mixing of {
      game : string;
      n : int;
      beta : float;
      eps : float;
      replicas : int;
      seed : int;
    }
  | Stationary of { game : string; n : int; beta : float }
  | Hitting of { game : string; n : int; beta : float }
  | Simulate of { game : string; n : int; beta : float; steps : int; seed : int }
  | Sample of { game : string; n : int; beta : float; count : int; seed : int }
  | Stats

type request = { id : int; deadline_ms : int option; query : query }

type error =
  | Overloaded
  | Deadline_exceeded
  | Bad_request of string
  | Server_error of string

type route = Panel | Spectral

type barrier = { d_global : float; d_local : float; zeta : float }

type mixing_reply = {
  size : int;
  reversible : bool;
  route : route;
  tmix : int option;
  empirical : (int * float) option;
  barrier : barrier option;
}

type hitting_reply = {
  size : int;
  argmin : int;
  phi_min : float;
  worst_hitting : float;
  hit_tmix : int option;
}

type stats_reply = {
  served : int;
  rejected : int;
  expired : int;
  failed : int;
  batches : int;
  max_batch : int;
  panel_steps : int;
  queue_peak : int;
  chain_cache_hits : int;
  chain_cache_misses : int;
  store_hits : int;
  store_misses : int;
}

type reply =
  | Mixing_r of mixing_reply
  | Stationary_r of float array
  | Hitting_r of hitting_reply
  | Simulate_r of int array
  | Sample_r of { samples : int array; max_window : int }
  | Stats_r of stats_reply

type response = { req_id : int; result : (reply, error) Result.t }

(* ------------------------------------------------------------------ *)
(* codecs                                                              *)

let enc_option enc_v b = function
  | None -> Codec.Enc.u8 b 0
  | Some v ->
      Codec.Enc.u8 b 1;
      enc_v b v

let dec_option dec_v d =
  match Codec.Dec.u8 d with
  | 0 -> None
  | 1 -> Some (dec_v d)
  | t -> Codec.Dec.fail (Printf.sprintf "bad option tag %d" t)

let enc_query b = function
  | Mixing { game; n; beta; eps; replicas; seed } ->
      Codec.Enc.u8 b 1;
      Codec.Enc.string b game;
      Codec.Enc.int_ b n;
      Codec.Enc.float b beta;
      Codec.Enc.float b eps;
      Codec.Enc.int_ b replicas;
      Codec.Enc.int_ b seed
  | Stationary { game; n; beta } ->
      Codec.Enc.u8 b 2;
      Codec.Enc.string b game;
      Codec.Enc.int_ b n;
      Codec.Enc.float b beta
  | Hitting { game; n; beta } ->
      Codec.Enc.u8 b 3;
      Codec.Enc.string b game;
      Codec.Enc.int_ b n;
      Codec.Enc.float b beta
  | Simulate { game; n; beta; steps; seed } ->
      Codec.Enc.u8 b 4;
      Codec.Enc.string b game;
      Codec.Enc.int_ b n;
      Codec.Enc.float b beta;
      Codec.Enc.int_ b steps;
      Codec.Enc.int_ b seed
  | Sample { game; n; beta; count; seed } ->
      Codec.Enc.u8 b 5;
      Codec.Enc.string b game;
      Codec.Enc.int_ b n;
      Codec.Enc.float b beta;
      Codec.Enc.int_ b count;
      Codec.Enc.int_ b seed
  | Stats -> Codec.Enc.u8 b 6

let dec_query d =
  match Codec.Dec.u8 d with
  | 1 ->
      let game = Codec.Dec.string d in
      let n = Codec.Dec.int_ d in
      let beta = Codec.Dec.float d in
      let eps = Codec.Dec.float d in
      let replicas = Codec.Dec.int_ d in
      let seed = Codec.Dec.int_ d in
      Mixing { game; n; beta; eps; replicas; seed }
  | 2 ->
      let game = Codec.Dec.string d in
      let n = Codec.Dec.int_ d in
      let beta = Codec.Dec.float d in
      Stationary { game; n; beta }
  | 3 ->
      let game = Codec.Dec.string d in
      let n = Codec.Dec.int_ d in
      let beta = Codec.Dec.float d in
      Hitting { game; n; beta }
  | 4 ->
      let game = Codec.Dec.string d in
      let n = Codec.Dec.int_ d in
      let beta = Codec.Dec.float d in
      let steps = Codec.Dec.int_ d in
      let seed = Codec.Dec.int_ d in
      Simulate { game; n; beta; steps; seed }
  | 5 ->
      let game = Codec.Dec.string d in
      let n = Codec.Dec.int_ d in
      let beta = Codec.Dec.float d in
      let count = Codec.Dec.int_ d in
      let seed = Codec.Dec.int_ d in
      Sample { game; n; beta; count; seed }
  | 6 -> Stats
  | t -> Codec.Dec.fail (Printf.sprintf "unknown query tag %d" t)

let encode_request r =
  Codec.frame ~kind:Codec.Request (fun b ->
      Codec.Enc.int_ b r.id;
      enc_option Codec.Enc.int_ b r.deadline_ms;
      enc_query b r.query)

let decode_request s =
  Codec.unframe ~kind:Codec.Request s (fun d ->
      let id = Codec.Dec.int_ d in
      let deadline_ms = dec_option Codec.Dec.int_ d in
      let query = dec_query d in
      { id; deadline_ms; query })

let enc_error b = function
  | Overloaded -> Codec.Enc.u8 b 1
  | Deadline_exceeded -> Codec.Enc.u8 b 2
  | Bad_request msg ->
      Codec.Enc.u8 b 3;
      Codec.Enc.string b msg
  | Server_error msg ->
      Codec.Enc.u8 b 4;
      Codec.Enc.string b msg

let dec_error d =
  match Codec.Dec.u8 d with
  | 1 -> Overloaded
  | 2 -> Deadline_exceeded
  | 3 -> Bad_request (Codec.Dec.string d)
  | 4 -> Server_error (Codec.Dec.string d)
  | t -> Codec.Dec.fail (Printf.sprintf "unknown error tag %d" t)

let enc_bool b v = Codec.Enc.u8 b (if v then 1 else 0)

let dec_bool d =
  match Codec.Dec.u8 d with
  | 0 -> false
  | 1 -> true
  | t -> Codec.Dec.fail (Printf.sprintf "bad bool %d" t)

let enc_reply b = function
  | Mixing_r m ->
      Codec.Enc.u8 b 1;
      Codec.Enc.int_ b m.size;
      enc_bool b m.reversible;
      enc_bool b (m.route = Spectral);
      enc_option Codec.Enc.int_ b m.tmix;
      enc_option
        (fun b (steps, tv) ->
          Codec.Enc.int_ b steps;
          Codec.Enc.float b tv)
        b m.empirical;
      enc_option
        (fun b { d_global; d_local; zeta } ->
          Codec.Enc.float b d_global;
          Codec.Enc.float b d_local;
          Codec.Enc.float b zeta)
        b m.barrier
  | Stationary_r pi ->
      Codec.Enc.u8 b 2;
      Codec.Enc.float_array b pi
  | Hitting_r h ->
      Codec.Enc.u8 b 3;
      Codec.Enc.int_ b h.size;
      Codec.Enc.int_ b h.argmin;
      Codec.Enc.float b h.phi_min;
      Codec.Enc.float b h.worst_hitting;
      enc_option Codec.Enc.int_ b h.hit_tmix
  | Simulate_r traj ->
      Codec.Enc.u8 b 4;
      Codec.Enc.int_array b traj
  | Sample_r { samples; max_window } ->
      Codec.Enc.u8 b 5;
      Codec.Enc.int_array b samples;
      Codec.Enc.int_ b max_window
  | Stats_r s ->
      Codec.Enc.u8 b 6;
      Codec.Enc.int_ b s.served;
      Codec.Enc.int_ b s.rejected;
      Codec.Enc.int_ b s.expired;
      Codec.Enc.int_ b s.failed;
      Codec.Enc.int_ b s.batches;
      Codec.Enc.int_ b s.max_batch;
      Codec.Enc.int_ b s.panel_steps;
      Codec.Enc.int_ b s.queue_peak;
      Codec.Enc.int_ b s.chain_cache_hits;
      Codec.Enc.int_ b s.chain_cache_misses;
      Codec.Enc.int_ b s.store_hits;
      Codec.Enc.int_ b s.store_misses

let dec_reply d =
  match Codec.Dec.u8 d with
  | 1 ->
      let size = Codec.Dec.int_ d in
      let reversible = dec_bool d in
      let route = if dec_bool d then Spectral else Panel in
      let tmix = dec_option Codec.Dec.int_ d in
      let empirical =
        dec_option
          (fun d ->
            let steps = Codec.Dec.int_ d in
            let tv = Codec.Dec.float d in
            (steps, tv))
          d
      in
      let barrier =
        dec_option
          (fun d ->
            let d_global = Codec.Dec.float d in
            let d_local = Codec.Dec.float d in
            let zeta = Codec.Dec.float d in
            { d_global; d_local; zeta })
          d
      in
      Mixing_r { size; reversible; route; tmix; empirical; barrier }
  | 2 -> Stationary_r (Codec.Dec.float_array d)
  | 3 ->
      let size = Codec.Dec.int_ d in
      let argmin = Codec.Dec.int_ d in
      let phi_min = Codec.Dec.float d in
      let worst_hitting = Codec.Dec.float d in
      let hit_tmix = dec_option Codec.Dec.int_ d in
      Hitting_r { size; argmin; phi_min; worst_hitting; hit_tmix }
  | 4 -> Simulate_r (Codec.Dec.int_array d)
  | 5 ->
      let samples = Codec.Dec.int_array d in
      let max_window = Codec.Dec.int_ d in
      Sample_r { samples; max_window }
  | 6 ->
      let served = Codec.Dec.int_ d in
      let rejected = Codec.Dec.int_ d in
      let expired = Codec.Dec.int_ d in
      let failed = Codec.Dec.int_ d in
      let batches = Codec.Dec.int_ d in
      let max_batch = Codec.Dec.int_ d in
      let panel_steps = Codec.Dec.int_ d in
      let queue_peak = Codec.Dec.int_ d in
      let chain_cache_hits = Codec.Dec.int_ d in
      let chain_cache_misses = Codec.Dec.int_ d in
      let store_hits = Codec.Dec.int_ d in
      let store_misses = Codec.Dec.int_ d in
      Stats_r
        {
          served;
          rejected;
          expired;
          failed;
          batches;
          max_batch;
          panel_steps;
          queue_peak;
          chain_cache_hits;
          chain_cache_misses;
          store_hits;
          store_misses;
        }
  | t -> Codec.Dec.fail (Printf.sprintf "unknown reply tag %d" t)

let encode_response r =
  Codec.frame ~kind:Codec.Response (fun b ->
      Codec.Enc.int_ b r.req_id;
      match r.result with
      | Ok reply ->
          Codec.Enc.u8 b 1;
          enc_reply b reply
      | Error e ->
          Codec.Enc.u8 b 0;
          enc_error b e)

let decode_response s =
  Codec.unframe ~kind:Codec.Response s (fun d ->
      let req_id = Codec.Dec.int_ d in
      let result =
        match Codec.Dec.u8 d with
        | 1 -> Ok (dec_reply d)
        | 0 -> Error (dec_error d)
        | t -> Codec.Dec.fail (Printf.sprintf "bad result tag %d" t)
      in
      { req_id; result })

(* ------------------------------------------------------------------ *)
(* length-prefixed stream framing                                      *)

(* Large enough for any panel/stationary payload on the daemon's
   size-guarded state spaces, small enough that a corrupted length
   prefix cannot make a reader buffer gigabytes. *)
let max_frame_len = 1 lsl 26

let write_framed buf s =
  let len = String.length s in
  if len > max_frame_len then invalid_arg "Protocol.write_framed: frame too large";
  Buffer.add_int32_le buf (Int32.of_int len);
  Buffer.add_string buf s

module Reader = struct
  (* Bytes [off, off + len) of [buf] are pending. [feed] appends after
     them, moving them to the front first when the tail lacks room
     (and growing [buf] by doubling when even that is not enough);
     [next] copies a complete frame out once and advances [off]. So a
     frame fed in any number of chunks is copied O(1) times per byte,
     amortised. *)
  type t = { mutable buf : Bytes.t; mutable off : int; mutable len : int }

  let initial = 4096

  (* An emptied buffer larger than this is dropped, so one huge frame
     does not pin its memory to the connection. *)
  let keep_limit = 1 lsl 20

  let create () = { buf = Bytes.create initial; off = 0; len = 0 }

  let feed t bytes ~len =
    if t.off + t.len + len > Bytes.length t.buf then begin
      let need = t.len + len in
      let dst =
        if need <= Bytes.length t.buf then t.buf
        else Bytes.create (Int.max need (2 * Bytes.length t.buf))
      in
      Bytes.blit t.buf t.off dst 0 t.len;
      t.buf <- dst;
      t.off <- 0
    end;
    Bytes.blit bytes 0 t.buf (t.off + t.len) len;
    t.len <- t.len + len

  (* Pop one complete frame body (without its length prefix), if the
     buffer holds one. [Error] is sticky protocol corruption: a length
     prefix beyond [max_frame_len] can never resynchronise, and it is
     left in place, so every later call reports it again. *)
  let next t =
    if t.len < 4 then Ok None
    else
      let len = Int32.to_int (Bytes.get_int32_le t.buf t.off) land 0xFFFFFFFF in
      if len > max_frame_len then
        Error (Printf.sprintf "frame length %d exceeds limit %d" len max_frame_len)
      else if t.len < 4 + len then Ok None
      else begin
        let frame = Bytes.sub_string t.buf (t.off + 4) len in
        t.off <- t.off + 4 + len;
        t.len <- t.len - 4 - len;
        if t.len = 0 then begin
          t.off <- 0;
          if Bytes.length t.buf > keep_limit then t.buf <- Bytes.create initial
        end;
        Ok (Some frame)
      end
end
