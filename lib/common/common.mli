(** Cross-library primitives shared by every layer of the system.

    This library is dependency-free on purpose: [linalg], [markov],
    [graphs] and [logit] all sit above it, so an exception defined
    here can travel across layer boundaries without forcing any other
    dependency edge. *)

(** Raised by iterative numerical routines when an iteration budget is
    exhausted before the convergence criterion is met: power iteration
    ({!Markov.Stationary.by_power}), QR/QL eigensolvers
    ({!Linalg.Eigen.general_spectrum}, {!Linalg.Eigen.symmetric},
    {!Linalg.Tridiag.eigensystem}),
    coupling-from-the-past ({!Logit.Perfect_sampling.sample}) and
    restart-bounded randomized constructions
    ({!Graphs.Generators.random_regular}).

    Distinct from [Invalid_argument], which these modules reserve for
    precondition violations: [No_convergence] means the input was
    legal but the budget (iterations, epochs, restarts) ran out. The
    project lint rule [exn-policy] enforces this split by rejecting
    [failwith]/[Failure] anywhere under [lib/]. *)
exception No_convergence of string

(** [no_convergence fmt ...] raises {!No_convergence} with a
    [Printf]-formatted message. *)
val no_convergence : ('a, unit, string, 'b) format4 -> 'a

(** [feq ~eps a b] is [|a - b| <= eps] — the explicit tolerance
    comparison the [float-equality] lint rule points to. [eps = 0.]
    gives exact comparison (NaN compares unequal to everything, and
    unlike [Float.equal] [feq ~eps:0. nan nan] is [false]). Raises
    [Invalid_argument] on negative or NaN [eps]. *)
val feq : eps:float -> float -> float -> bool

(** The project's clocks. Durations must be measured on the monotonic
    clock: the wall clock ([Unix.gettimeofday]) can step backwards or
    smear under NTP, which corrupts minimum-of-reps timings and
    latency histograms. The [wall-clock] lint rule bans
    [Unix.gettimeofday] outside this module; timestamp fields (bench
    provenance, artifact ages) legitimately keep wall time via
    {!Clock.wall_s}.

    Both clocks are bound directly to POSIX [clock_gettime]
    ([CLOCK_MONOTONIC] / [CLOCK_REALTIME]) through a local C stub —
    OCaml 5.1's [Unix] has no [clock_gettime] — which keeps this
    library dependency-free. *)
module Clock : sig
  (** [monotonic_ns ()] is a monotonically non-decreasing timestamp in
      nanoseconds from an unspecified origin. Differences are valid
      durations. Falls back (documented, never raises) to the realtime
      clock on a host whose [clock_gettime] lacks [CLOCK_MONOTONIC]. *)
  val monotonic_ns : unit -> int64

  (** [span_s ~since] is the elapsed time in seconds from the
      {!monotonic_ns} reading [since] to now. *)
  val span_s : since:int64 -> float

  (** [wall_s ()] is the wall-clock time in seconds since the Unix
      epoch — for timestamps only, never durations. *)
  val wall_s : unit -> float
end

(** Process peak-RSS introspection, read from [/proc/self/status]
    (Linux). Every accessor degrades to [None]/[false] on hosts
    without procfs, so callers can record memory bounds
    opportunistically (bench phase 1.10's out-of-core claim) without
    a platform gate. Uses only [Stdlib] I/O: [common] stays
    dependency-free. *)
module Rss : sig
  (** [peak_kb ()] is the process's peak resident set size ([VmHWM])
      in kilobytes, or [None] when procfs is unavailable. *)
  val peak_kb : unit -> int option

  (** [reset_peak ()] resets the kernel's peak-RSS watermark by
      writing ["5"] to [/proc/self/clear_refs] (Linux >= 4.0), so a
      following {!peak_kb} measures only the phase in between.
      Returns [false] (and changes nothing) where unsupported. *)
  val reset_peak : unit -> bool
end
