(** Exact mixing-time computation.

    The worst-case total variation distance at time t is

    {v d(t) = max_x ‖Pᵗ(x,·) - π‖_TV, v}

    computed by evolving the point masses of a set of start states in
    lockstep. For modest state spaces all states can serve as starts;
    for structured games it suffices to pass the profiles known to be
    extremal (e.g. the potential minimisers), which is validated in the
    test suite. The paper's convention t_mix = t_mix(1/4) is the
    default.

    Every exact-TV route runs through one private sweep loop: each
    plane (a chain, or one β of a {!Family.t}) holds its starts as a
    panel advanced by the evolve kernel, and its TV rows are refreshed
    after every step. {!panel_sweep_kernel} is the 1-plane instance,
    {!family_panel_sweep} the multi-plane one, and everything else
    (including the single-start {!tv_at}) wraps one of the two.

    The three independent routes to t_mix — the panel sweep
    ({!mixing_time}), the eigendecomposition ({!mixing_time_spectral})
    and repeated squaring ({!mixing_time_squaring}) — share one budget
    contract: [None] exactly when t_mix > [max_steps], and
    [Invalid_argument] on a negative [max_steps]. *)

(** [panel_sweep ?pool t pi ~starts ~decide] is the panel-evolution
    loop behind {!tv_curve} and {!mixing_time}, exposed
    so batching consumers (the daemon scheduler) settle their answers
    through the {e same} float operations as the serial paths — the
    bit-identity of coalesced and per-request answers holds by
    construction. After every TV refresh (including step 0, before any
    evolution) [decide ~step ~worst] either returns [Some r] to stop
    with [r] or [None] to evolve one more step. [decide] must
    eventually stop the sweep (e.g. on a step bound or deadline); the
    loop itself imposes no budget. Raises [Invalid_argument] on an
    empty or out-of-range start set or a [pi] of the wrong length. *)
val panel_sweep :
  ?pool:Exec.Pool.t -> Chain.t -> float array -> starts:int list ->
  decide:(step:int -> worst:float -> 'a option) -> 'a

(** [panel_sweep_kernel] is {!panel_sweep} generalised over the
    storage layout: the chain is consumed only through a {!Kernel.t},
    so in-RAM chains ({!Kernel.of_chain}) and out-of-core segmented
    chains ([Ooc.Segmented_chain.kernel]) drive the identical sweep
    loop — the segmented path's bit-identity to the in-RAM path
    reduces to the bit-identity of the two [evolve_many_into]
    kernels. It is the 1-plane instance of the sweep loop
    {!family_panel_sweep} also runs, and [panel_sweep ?pool t] is
    literally [panel_sweep_kernel ?pool (Kernel.of_chain t)]. *)
val panel_sweep_kernel :
  ?pool:Exec.Pool.t -> Kernel.t -> float array -> starts:int list ->
  decide:(step:int -> worst:float -> 'a option) -> 'a

(** [tv_curve ?pool t pi ~starts ~steps] is the array [d(0); d(1); ...;
    d(steps)] of worst-case (over [starts]) TV distances. The starts
    live in one double-buffered row-major panel advanced by the blocked
    SpMM {!Chain.evolve_many_into} — one matrix traversal per step for
    all starts, no allocation after setup regardless of [steps]. With
    [?pool] the destination sweep of each step runs across domains;
    results are bit-identical to the serial per-start sweep for any
    pool size. *)
val tv_curve :
  ?pool:Exec.Pool.t -> Chain.t -> float array -> starts:int list -> steps:int ->
  float array

(** [tv_curve_kernel] is {!tv_curve} over a {!Kernel.t} — the
    out-of-core entry point; [tv_curve ?pool t] delegates here via
    {!Kernel.of_chain}. *)
val tv_curve_kernel :
  ?pool:Exec.Pool.t -> Kernel.t -> float array -> starts:int list -> steps:int ->
  float array

(** [mixing_time ?pool ?eps ?max_steps t pi ~starts] is the least t
    with d(t) ≤ eps (default 1/4), or [None] if it exceeds [max_steps]
    (default [1_000_000]). By monotonicity of d(·) the scan stops at
    the first success. Runs on the same blocked SpMM panel as
    {!tv_curve}; [?pool] parallelises the per-step destination
    sweep. Raises [Invalid_argument] on a negative [max_steps]. *)
val mixing_time :
  ?pool:Exec.Pool.t -> ?eps:float -> ?max_steps:int -> Chain.t -> float array ->
  starts:int list -> int option

(** [mixing_time_kernel] is {!mixing_time} over a {!Kernel.t} — the
    out-of-core entry point; [mixing_time ?pool t] delegates here via
    {!Kernel.of_chain}. *)
val mixing_time_kernel :
  ?pool:Exec.Pool.t -> ?eps:float -> ?max_steps:int -> Kernel.t -> float array ->
  starts:int list -> int option

(** [mixing_time_all ?pool ?eps ?max_steps t pi] uses every state as a
    start (exact d(t), O(size²) memory traffic per step). *)
val mixing_time_all :
  ?pool:Exec.Pool.t -> ?eps:float -> ?max_steps:int -> Chain.t -> float array ->
  int option

(** [family_panel_sweep ?pool family ~pis ~starts ~decide] is the
    multi-plane instance of the sweep loop: one panel per plane of a
    β-family in lockstep, the still-live planes advanced by
    {!Family.evolve_many_into} — the fused multi-plane gather when the
    family shares its index structure (one traversal of the shared
    structure per step for the whole β-grid), per-plane gathers
    otherwise. After every TV refresh (including step 0)
    [decide ~plane ~step ~worst] is called for each unsettled plane
    with that plane's worst-over-starts TV; returning [true] settles
    the plane (it stops evolving), and the sweep ends when every plane
    has settled. Per plane, the (step, worst) sequence [decide]
    observes is bit-identical to a solo {!panel_sweep_kernel} over that
    plane — the fusion only amortises index traffic. [pis] holds one
    stationary distribution per plane. [decide] must eventually settle
    every plane; the loop imposes no budget. Raises [Invalid_argument]
    on mismatched [pis], an empty or out-of-range start set, or a [pi]
    of the wrong length. *)
val family_panel_sweep :
  ?pool:Exec.Pool.t -> Family.t -> pis:float array array -> starts:int list ->
  decide:(plane:int -> step:int -> worst:float -> bool) -> unit

(** [family_mixing_times ?pool ?eps ?max_steps family ~pis ~starts] is
    the whole β-grid's mixing times in one fused sweep: element [i] is
    the least t with d(t) ≤ [eps] (default 1/4) for plane [i], or
    [None] past [max_steps] (default [1_000_000]) — each element
    bit-identical to {!mixing_time_kernel} on that plane alone. Raises
    [Invalid_argument] on a negative [max_steps]. *)
val family_mixing_times :
  ?pool:Exec.Pool.t -> ?eps:float -> ?max_steps:int -> Family.t ->
  pis:float array array -> starts:int list -> int option array

(** [tv_at t pi ~start ~steps] is ‖Pᵗ(start,·) - π‖_TV at [t = steps]
    only: the last point of a single-start {!tv_curve}, so the start
    is a 1-row panel. Raises [Invalid_argument] on a negative [steps]
    or an out-of-range [start]. *)
val tv_at : Chain.t -> float array -> start:int -> steps:int -> float

(** [empirical_tv ?pool rng t pi ~start ~steps ~replicas] estimates the
    TV distance at time [steps] by simulating [replicas] independent
    chains and comparing the empirical law against π. The estimate is
    positively biased by sampling noise ≈ √(size/replicas); it is used
    only for state spaces too large for exact evolution. Replica [r]
    is driven by stream [r] of {!Prob.Rng.split_n}, so for a fixed
    seed the estimate is bit-identical whether it is computed serially
    or on a pool of any size. Raises [Invalid_argument] on an
    out-of-range [start], a negative [steps], or [replicas < 1]. *)
val empirical_tv :
  ?pool:Exec.Pool.t -> Prob.Rng.t -> Chain.t -> float array -> start:int ->
  steps:int -> replicas:int -> float

(** [upper_mixing_time_spectral ~gap ~pi_min ~eps] is the spectral
    upper bound t_rel·log(1/(ε·π_min)) of Theorem 2.3, with
    [t_rel = 1/gap]. *)
val upper_mixing_time_spectral : gap:float -> pi_min:float -> eps:float -> float

(** [lower_mixing_time_spectral ~gap ~eps] is the spectral lower bound
    (t_rel - 1)·log(1/2ε) of Theorem 2.3. *)
val lower_mixing_time_spectral : gap:float -> eps:float -> float

(** [mixing_time_spectral ?eps ?max_steps t pi ~starts] computes the
    exact mixing time of a {e reversible} chain through its full
    eigendecomposition: with A = D^{1/2} P D^{-1/2} = U Λ Uᵀ,
    Pᵗ(x,y) = Σ_k λ_kᵗ u_k(x) u_k(y) √(π(y)/π(x)), so d(t) can be
    evaluated at any t in O(|starts|·size²) without stepping the
    chain. Since d(·) is non-increasing, the answer is found by
    doubling + binary search — O(log t_mix) evaluations — which makes
    exponentially large mixing times (large β) computable exactly.
    Returns [None] when t_mix exceeds [max_steps] (default
    [max_int / 4]; no probed time ever exceeds it) and raises
    [Invalid_argument] on a negative [max_steps]. Requires
    reversibility (checked). *)
val mixing_time_spectral :
  ?eps:float -> ?max_steps:int -> Chain.t -> float array -> starts:int list ->
  int option

(** [decompose t pi] is the eigendecomposition [(eigenvalues, U)] of
    the symmetrised chain ({!Linalg.Eigen.symmetric} of
    {!Spectral.symmetrize}), for repeated
    {!mixing_time_from_decomposition} queries. *)
val decompose : Chain.t -> float array -> float array * Linalg.Mat.t

(** [mixing_time_from_decomposition ?eps ?max_steps ~decomposition pi
    ~starts] is {!mixing_time_spectral} driven by a caller-supplied
    eigendecomposition [(values, U)] of A = D^{1/2} P D^{-1/2} — e.g.
    the tridiagonal one of a birth–death chain, which skips the dense
    reduction entirely.

    The search probes d(0), then t = 1, 2, 4, … up to [max_steps],
    then binary-searches the bracket. A probe asks only whether
    d(t) ≤ [eps]: it computes λ_kᵗ once, then checks the starts one at
    a time, first the start that failed the previous probe, and stops
    at the first start whose TV is not ≤ [eps] (a NaN TV fails the
    probe). Each start's TV is computed by the same float operations
    whichever starts are probed with it, so the answer does not depend
    on the order of [starts]. Every start is validated before the
    first probe.

    Raises [Invalid_argument] on a negative [max_steps], an empty or
    out-of-range start set, or a decomposition whose [U] is not
    [Array.length pi] × [Array.length values]. *)
val mixing_time_from_decomposition :
  ?eps:float -> ?max_steps:int -> decomposition:float array * Linalg.Mat.t ->
  float array -> starts:int list -> int option

(** [mixing_time_squaring ?eps ?max_steps t pi ~starts] computes the
    exact mixing time by repeated squaring of the dense transition
    matrix: Pᵗ is assembled from precomputed P^(2^k) factors and the
    monotone d(·) is binary-searched bit by bit. O(size³·log t_mix) —
    slower than the spectral route but numerically robust even when
    π_min underflows toward 1e-300 (products of stochastic matrices
    stay stochastic; rows are renormalised after every multiply).
    Squaring continues until the power mixes or first reaches
    [max_steps] (default [max_int / 4]); the answer is [None] iff it
    exceeds [max_steps]. Raises [Invalid_argument] on a negative
    [max_steps]. Guarded to [size <= 768]. *)
val mixing_time_squaring :
  ?eps:float -> ?max_steps:int -> Chain.t -> float array -> starts:int list ->
  int option
