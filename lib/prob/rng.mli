(** A self-contained, splittable pseudo-random number generator.

    The generator is SplitMix64 (Steele, Lea & Flood 2014): a 64-bit
    counter advanced by a Weyl increment and scrambled by a finaliser.
    It is small, fast, passes BigCrush, and — crucially for this
    library — deterministic and splittable, so every experiment and
    every simulated chain can be reproduced bit-for-bit from a seed
    and independent streams can be derived for parallel replicas. *)

type t

(** [create seed] is a fresh generator initialised from [seed]. *)
val create : int -> t

(** [copy t] is an independent generator in the same state as [t]. *)
val copy : t -> t

(** [split t] advances [t] and returns a generator whose stream is
    (statistically) independent of the remainder of [t]'s stream. *)
val split : t -> t

(** [split_n t n] derives [n] pairwise-independent streams by [n]
    successive splits of [t] (advancing [t] exactly [n] times). The
    derivation is purely sequential and deterministic in [t]'s state,
    so stream [i] is the same whether the streams are later consumed
    serially or by any number of parallel workers — the foundation of
    reproducible parallel Monte Carlo. Raises [Invalid_argument] on a
    negative count. *)
val split_n : t -> int -> t array

(** [bits64 t] is the next raw 64-bit output. *)
val bits64 : t -> int64

(** [float t] is uniform on [[0, 1)]. *)
val float : t -> float

(** [int t bound] is uniform on [{0, ..., bound-1}].
    Raises [Invalid_argument] if [bound <= 0]. *)
val int : t -> int -> int

(** [bool t] is a fair coin flip. *)
val bool : t -> bool

(** [bernoulli t p] is [true] with probability [p] (clamped to [0,1]). *)
val bernoulli : t -> float -> bool

(** [exponential t ~rate] samples Exp(rate). Raises [Invalid_argument]
    if [rate <= 0]. *)
val exponential : t -> rate:float -> float

(** [geometric t p] is the number of failures before the first success
    of a Bernoulli(p) sequence. Raises [Invalid_argument] unless
    [0 < p <= 1]. *)
val geometric : t -> float -> int

(** [categorical t weights] samples index [i] with probability
    proportional to [weights.(i)]. Weights must be non-negative with a
    strictly positive sum; raises [Invalid_argument] otherwise. *)
val categorical : t -> float array -> int

(** [categorical_total weights] is the validation and the total
    behind {!categorical}: [Σ weights] summed left to right, after
    checking that [weights] is non-empty with no negative or NaN
    entry; raises [Invalid_argument] otherwise, or when the total is
    not positive. [categorical t w] is exactly
    [categorical_pick w ~u:(float t *. categorical_total w)], so a
    caller that keeps the total of a fixed weight array can draw from
    it later with the same bits and the same stream. *)
val categorical_total : float array -> float

(** [categorical_pick weights ~u] is the deterministic selection core
    of {!categorical}: the first index whose running prefix sum
    exceeds the threshold [u ∈ [0, Σ weights)]. A [u] at or beyond the
    accumulated total — reachable only through floating-point rounding
    of [u = uniform · Σ weights] — falls back to the last strictly
    positive weight, so zero-weight tails are never selected. Performs
    no validation; exposed for boundary testing and for callers that
    supply their own uniform variates. *)
val categorical_pick : float array -> u:float -> int

(** [shuffle t a] permutes [a] in place uniformly at random
    (Fisher–Yates). *)
val shuffle : t -> 'a array -> unit
