(** Versioned, endian-stable binary framing for on-disk artifacts.

    Every artifact is a single framed byte string:

    {v
      offset  size  field
      0       4     magic "LDAF" (logit-dynamics artifact file)
      4       2     format version, little-endian
      6       2     payload kind tag, little-endian
      8       4     payload length, little-endian
      12      len   payload
      12+len  4     CRC-32 (IEEE) of bytes [0, 12+len), little-endian
    v}

    All multi-byte values are little-endian regardless of host; floats
    are stored as their IEEE-754 bit patterns, so decode∘encode is the
    identity bit for bit. Artifacts produced by one compiler are
    readable by any other — nothing here goes near [Marshal] (the
    [marshal-outside-store] lint rule keeps it that way repo-wide).

    Corrupt input never escapes as an exception or a garbage value:
    {!unframe} validates magic, version, kind, length and checksum and
    returns [Error] with a description on any mismatch, including
    truncation, single-bit flips and trailing bytes. *)

(** The current format version, stamped into every frame. Bump it when
    the payload encoding of any kind changes; old artifacts are then
    rejected (and simply rebuilt) rather than misread. *)
val version : int

(** Payload kinds. The tag travels in the frame header so an artifact
    can never be decoded as the wrong type of object. *)
type kind =
  | Chain  (** a CSR Markov chain ({!Markov.Chain_codec}) *)
  | Dist  (** a stationary distribution (float array) *)
  | Curve  (** a TV curve (float array) *)
  | Table  (** one experiment table ({!Experiments.Table}) *)
  | Table_list  (** an experiment's full table list *)
  | Request  (** a daemon wire request ({!Serve.Protocol}) *)
  | Response  (** a daemon wire response ({!Serve.Protocol}) *)
  | Segment  (** an out-of-core segment header ({!Ooc.Segment}) *)
  | Chain_structure
      (** a β-family's shared CSR index structure
          ({!Markov.Family_codec}): row offsets + columns, no
          probabilities *)
  | Chain_plane
      (** one β plane of a family ({!Markov.Family_codec}):
          probabilities over a separately-filed structure *)

(** [kind_name k] is a short lowercase name for messages and [store ls]. *)
val kind_name : kind -> string

(** Incremental payload writer over an internal buffer. Encoders never
    fail on well-typed input except [u8]/[u32] on out-of-range values
    ([Invalid_argument]). *)
module Enc : sig
  type t

  val u8 : t -> int -> unit
  val u32 : t -> int -> unit
  val i64 : t -> int64 -> unit

  (** [int_ b v] stores an OCaml [int] as a full [i64]. *)
  val int_ : t -> int -> unit

  (** [float b v] stores the IEEE-754 bit pattern ([Int64.bits_of_float]). *)
  val float : t -> float -> unit

  (** [string b s] stores a [u32] byte length followed by the bytes. *)
  val string : t -> string -> unit

  (** [int_array]/[float_array] store a [u32] length then the elements. *)
  val int_array : t -> int array -> unit

  val float_array : t -> float array -> unit

  (** [list b item xs] stores a [u32] count then each element via [item]. *)
  val list : t -> (t -> 'a -> unit) -> 'a list -> unit
end

(** Payload reader. Every read is bounds-checked against the framed
    payload; a short or malformed payload raises the internal corrupt
    exception, which {!unframe} converts to [Error] — it never escapes
    to callers of the public API. *)
module Dec : sig
  type t

  (** [fail msg] aborts decoding with [msg] — for client decoders
      (chain/table payloads) to signal semantic corruption; {!unframe}
      turns it into [Error msg]. *)
  val fail : string -> 'a

  val u8 : t -> int
  val u32 : t -> int
  val i64 : t -> int64
  val int_ : t -> int
  val float : t -> float
  val string : t -> string
  val int_array : t -> int array
  val float_array : t -> float array
  val list : t -> (t -> 'a) -> 'a list
end

(** The largest payload a frame can carry: the length field is a u32,
    so [0xFFFFFFFF] bytes. Writers that might exceed it (out-of-core
    segment regions) must split their data into bounded blocks. *)
val max_payload_bytes : int

(** [frame ~kind write] runs [write] on a fresh encoder and wraps the
    payload in the header + checksum described above. The encoder
    writes the payload after room left for the header and keeps room
    for the CRC, so the frame is built in the encoder's own buffer; a
    payload that ends in one large array comes back without any copy.
    Raises [Invalid_argument] if the payload exceeds
    {!max_payload_bytes} — a typed failure, never a silently wrapped
    length field. *)
val frame : kind:kind -> (Enc.t -> unit) -> string

(** [unframe ~kind s read] validates the frame (magic, version, kind,
    length, CRC) and runs [read] over the payload. [Error] on any
    mismatch, on a [Dec] failure, or if [read] leaves payload bytes
    unconsumed. *)
val unframe : kind:kind -> string -> (Dec.t -> 'a) -> ('a, string) result

(** [inspect s] validates the frame without decoding the payload and
    returns the kind and payload byte length — the check behind
    [logitdyn store verify]. *)
val inspect : string -> (kind * int, string) result

(** {1 Flat float-array artifacts} *)

(** Stationary distributions and TV curves are plain float arrays; the
    two kinds are distinct so a curve can never be read as a
    distribution. *)

val encode_dist : float array -> string

val decode_dist : string -> (float array, string) result

val encode_curve : float array -> string

val decode_curve : string -> (float array, string) result

(** [crc32 ?len s] is the CRC-32 (IEEE 802.3) of the first [len] bytes
    of [s] (default: all) — exposed for tests and for {!Cas.verify}.
    It is computed slicing-by-8 (eight bytes per step over eight
    256-entry tables of native ints, then byte at a time for the last
    [len mod 8]); the values are those of the byte-at-a-time
    definition, so every stored checksum still verifies. Raises
    [Invalid_argument] when [len] is negative or beyond [s]. *)
val crc32 : ?len:int -> string -> int
