(** The logit dynamics M^β(G) of a strategic game (paper, Section 2).

    At every step a player i is selected uniformly at random and
    updates her strategy to y with probability

    {v σ_i(y | x) = exp(β·u_i(y, x₋ᵢ)) / Σ_z exp(β·u_i(z, x₋ᵢ)), v}

    giving the ergodic Markov chain of eq. (3). All exponentials are
    evaluated in the log domain so that arbitrarily large β is safe. *)

(** [update_distribution game ~beta ~player idx] is σ_player(· | x)
    for the profile with index [idx], as a probability vector over
    [player]'s strategies. Requires [beta >= 0]. *)
val update_distribution : Games.Game.t -> beta:float -> player:int -> int -> float array

(** [transition_row game ~beta idx] is the sparse row P(x, ·) of
    eq. (3): off-diagonal mass σ_i(y_i|x)/n to each unilateral
    deviation, aggregated self-loop mass on the diagonal. *)
val transition_row : Games.Game.t -> beta:float -> int -> (int * float) list

(** [chain ?pool game ~beta] materialises the full logit chain (profile
    space indexed as in {!Games.Strategy_space}). Memory is
    Θ(size · n · m); guard with {!Games.Game.size} before calling on
    big games. Row construction is embarrassingly parallel: [?pool]
    splits it across domains with identical results. *)
val chain : ?pool:Exec.Pool.t -> Games.Game.t -> beta:float -> Markov.Chain.t

(** [chain_family ?pool game ~betas] materialises the logit chains of a
    whole β-grid as a {!Markov.Family}: each state's utility deltas are
    tabulated exactly once (they do not depend on β) and re-softmaxed
    per grid point, and the planes share one CSR/CSC index structure
    whenever their sparsity agrees (checked, not assumed). Every plane
    is {b bit-identical} to an independent [chain ~beta] build at the
    same β — the log weights are [β·u] with the very same tabulated
    [u], through the same [normalize_logs] softmax, rows assembled in
    {!transition_row}'s exact order and packed by the same
    [of_function] pipeline — for any pool size. Raises
    [Invalid_argument] on an empty grid or a negative β. *)
val chain_family :
  ?pool:Exec.Pool.t -> Games.Game.t -> betas:float list -> Markov.Family.t

(** [step rng game ~beta idx] performs one logit-dynamics step by
    direct simulation (no chain materialisation). *)
val step : Prob.Rng.t -> Games.Game.t -> beta:float -> int -> int

(** [trajectory rng game ~beta ~start ~steps] simulates and returns
    [start = x₀, x₁, ..., x_steps]. *)
val trajectory :
  Prob.Rng.t -> Games.Game.t -> beta:float -> start:int -> steps:int -> int array

(** {1 Tabulated sampling}

    σ_i(· | x) depends only on the profile x and the player i, so a
    long-lived caller that simulates one (game, β) again and again can
    keep it instead of recomputing it at every step. *)

(** A sampler for one game at one β: a slot per (profile, player)
    holding σ_i(· | x), its total and x with i's strategy set to 0
    (from which a move to strategy a is one multiply-add), each filled
    on its first visit. Memory is three words
    per slot, Θ(|S|·n), allocated up front, plus Θ(Σ_i m_i) floats per
    profile visited, so Θ(|S|·Σ_i m_i) once every profile has been
    visited: under the daemon's cap of 2¹⁶ profiles that is at most
    about 48 MB (16 binary players). {!trajectory} needs no table and
    stays the sampler for games of any size. A sampler is mutable and
    is not safe to share between domains. *)
type sampler

(** [sampler game ~beta] is an empty sampler; it computes nothing and
    validates nothing until it is walked. *)
val sampler : Games.Game.t -> beta:float -> sampler

(** [walk s rng ~start ~steps] is [trajectory rng game ~beta ~start
    ~steps] for the [game] and [beta] of [s], bit for bit, from the
    same [rng] state, which it leaves in the same state: every step
    draws [Rng.int n] and then [Rng.float], and picks a strategy with
    {!Prob.Rng.categorical_pick} over the very array
    {!update_distribution} returns and the total
    {!Prob.Rng.categorical_total} folds over it. A slot is filled when
    a step first visits it, so an error ([beta < 0], invalid weights)
    is raised at the same step as {!trajectory} raises it. Raises
    [Invalid_argument] on negative [steps] or a [start] outside the
    state space. *)
val walk : sampler -> Prob.Rng.t -> start:int -> steps:int -> int array

(** [best_response_probability game ~beta idx] is the probability that
    the next update is a best response: Σ_i (1/n)·Σ_{y ∈ BR_i(x)}
    σ_i(y|x). Tends to 1 as β → ∞, to the fraction of best-response
    strategies as β → 0. *)
val best_response_probability : Games.Game.t -> beta:float -> int -> float
