(** Wire protocol of the logitdynd daemon.

    A message is a [u32] little-endian byte length followed by exactly
    that many bytes of a {!Store.Codec} frame of kind [Request] or
    [Response] — the same magic/version/kind/CRC framing as on-disk
    artifacts, so truncation, bit flips and type confusion are
    detected and reported instead of misread, and nothing is ever
    [Marshal]ed across the socket.

    Strictness: every decoder is bounds-checked against the framed
    payload and rejects unknown tags, trailing bytes and checksum
    mismatches with [Error]. *)

(** A query names a game by catalogue id; the daemon builds (or pulls
    from its warm {!Store.Cas} cache) the chain behind it. *)
type query =
  | Mixing of {
      game : string;
      n : int;
      beta : float;
      eps : float;
      replicas : int;  (** > 0 adds a Monte-Carlo TV estimate *)
      seed : int;  (** seed for the empirical estimate *)
    }
  | Stationary of { game : string; n : int; beta : float }
  | Hitting of { game : string; n : int; beta : float }
  | Simulate of { game : string; n : int; beta : float; steps : int; seed : int }
  | Sample of { game : string; n : int; beta : float; count : int; seed : int }
  | Stats  (** server counters; never queued behind heavy work *)

type request = {
  id : int;  (** client-chosen; echoed in the response *)
  deadline_ms : int option;
      (** per-request budget in milliseconds from server receipt,
          enforced between panel steps *)
  query : query;
}

type error =
  | Overloaded  (** admission control: the bounded queue was full *)
  | Deadline_exceeded  (** the deadline passed before the answer settled *)
  | Bad_request of string  (** unknown game, out-of-range size, ... *)
  | Server_error of string  (** unexpected failure while computing *)

(** Which mixing-time route answered: the blocked-SpMM panel sweep or
    the shared eigendecomposition. *)
type route = Panel | Spectral

type barrier = { d_global : float; d_local : float; zeta : float }

type mixing_reply = {
  size : int;
  reversible : bool;
  route : route;
  tmix : int option;  (** [None]: exceeded the server's step budget *)
  empirical : (int * float) option;  (** (steps, TV) when replicas > 0 *)
  barrier : barrier option;  (** potential games only *)
}

type hitting_reply = {
  size : int;
  argmin : int;  (** encoded profile minimising the potential *)
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
  max_batch : int;  (** widest coalesced batch so far *)
  panel_steps : int;  (** total SpMM panel steps across all batches *)
  queue_peak : int;
  chain_cache_hits : int;  (** in-memory chain cache *)
  chain_cache_misses : int;
  store_hits : int;  (** on-disk {!Store.Cas} warm cache *)
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

(** {1 Codecs} *)

(** [encode_request r] is the Codec frame (kind [Request]) for [r] —
    {e without} the stream length prefix; see {!write_framed}. *)
val encode_request : request -> string

val decode_request : string -> (request, string) result

val encode_response : response -> string

val decode_response : string -> (response, string) result

(** {1 Stream framing} *)

(** Upper bound on a single frame's byte length; a length prefix
    beyond it is unrecoverable protocol corruption. *)
val max_frame_len : int

(** [write_framed buf frame] appends the [u32] length prefix and the
    frame bytes to [buf]. Raises [Invalid_argument] beyond
    {!max_frame_len}. *)
val write_framed : Buffer.t -> string -> unit

(** Incremental reader for a length-prefixed frame stream: feed raw
    socket bytes in, pop complete frames out. The pending bytes live
    in one buffer with a read offset: {!feed} appends (compacting or
    growing the buffer only when its tail is full) and {!next} copies
    each frame out once, so reading a frame in many small chunks costs
    time linear in its length. The frames that come out do not depend
    on how the stream was cut into chunks. *)
module Reader : sig
  type t

  val create : unit -> t

  (** [feed t bytes ~len] appends the first [len] bytes just read. *)
  val feed : t -> bytes -> len:int -> unit

  (** [next t] pops the next complete frame body, [Ok None] if more
      bytes are needed, or [Error] on an oversized length prefix
      (unrecoverable and sticky: every later call returns the same
      [Error]; close the connection). *)
  val next : t -> (string option, string) result
end
