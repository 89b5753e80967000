(** Shared evaluation engine behind the CLI and the daemon.

    One instance owns the in-memory chain cache (keyed by game id, n
    and the exact beta bits), the optional on-disk {!Store.Cas} warm
    cache, an optional domain pool for the SpMM kernels, and the
    mixing route policy. The CLI's serial paths and the daemon's
    coalescing scheduler both answer through this module — via the
    same {!Markov.Mixing.panel_sweep} /
    {!Markov.Mixing.mixing_time_from_decomposition} primitives — which
    is what makes coalesced answers bit-identical to serial ones. *)

type t

(** A built chain with everything derived from it once per (game, n,
    beta): the stationary distribution, reversibility, and two lazily
    cached artifacts of the first mixing or hitting query: the
    eigendecomposition for the spectral route and the start set of
    exact d(t) ({!starts}). *)
type entry = {
  spec : Catalog.spec;
  game : Games.Game.t;
  potential : (int -> float) option;
  chain : Markov.Chain.t;
  pi : float array;
  reversible : bool;
  mutable decomposition : (float array * Linalg.Mat.t) option;
  mutable starts : int list option;
}

val default_spectral_cutoff : int
val default_max_steps : int

(** [create ?pool ?store ?spectral_cutoff ?max_steps ()] — a
    reversible chain with at most [spectral_cutoff] states (default
    [2048], the CLI's historical policy; tests pass [0] to force the
    panel route) answers mixing queries through its
    eigendecomposition; everything else runs the blocked-SpMM panel
    with a budget of [max_steps] (default [5_000_000]) steps. Raises
    [Invalid_argument] on negative [max_steps]. *)
val create :
  ?pool:Exec.Pool.t -> ?store:Store.Cas.t -> ?spectral_cutoff:int ->
  ?max_steps:int -> unit -> t

val pool : t -> Exec.Pool.t option

(** The panel-route step budget. *)
val max_steps : t -> int

(** [entry t ~game ~n ~beta] builds (or returns the cached) chain
    entry; [Error] on an unknown game or an oversized state space.
    Failed builds are cached too — a bad request does not get
    recomputed per retry. *)
val entry : t -> game:string -> n:int -> beta:float -> (entry, string) result

(** [spectral_route t e] — whether mixing queries on [e] go through
    the eigendecomposition. *)
val spectral_route : t -> entry -> bool

(** The (lazily computed, cached) eigendecomposition of an entry. *)
val decomposition : entry -> float array * Linalg.Mat.t

(** Every state of the entry's chain, in ascending order. *)
val all_starts : entry -> int list

(** [starts e] is the start set of exact d(t) (lazily computed on the
    first mixing or hitting query, then cached on [e]): one state per
    orbit of the symmetries of [e]'s chain, the smallest of each, in
    ascending order. The candidates are the catalog's player
    permutations ({!Catalog.spec}) and, when every player has two
    strategies, the global 0 ↔ 1 relabelling; only those
    {!Markov.Symmetry.verify} accepts are used. With none accepted it
    is {!all_starts}. The panel route, hitting's [hit_tmix] and
    {!spectral_tmix} evolve these starts; the maximum of d_x(t) over
    them equals the all-states maximum up to the rounding of the
    chain's construction. *)
val starts : entry -> int list

(** [spectral_tmix e ~eps] is the spectral route's answer: the t_mix
    search of {!Markov.Mixing.mixing_time_from_decomposition} over the
    entry's cached {!decomposition}, from {!starts} when the spectral
    gap 1 − λ★ is at least 1e-5 and from {!all_starts} below it, where
    the decomposition no longer resolves the orbits (two starts of one
    orbit get t_mix values apart by up to 3·10⁵ steps at a gap of
    9·10⁻¹¹). *)
val spectral_tmix : entry -> eps:float -> int option

(** Potential-barrier quantities, when the game has a potential. *)
val barrier_of : entry -> Protocol.barrier option

(** [empirical_of t e ~tmix ~replicas ~seed] is the Monte-Carlo TV
    estimate at [tmix] (or 1000 steps when [tmix] is [None]);
    [None] when [replicas <= 0]. *)
val empirical_of :
  t -> entry -> tmix:int option -> replicas:int -> seed:int ->
  (int * float) option

(** [mixing_reply_of t e ~tmix ~replicas ~seed] assembles the full
    mixing reply around an already-settled [tmix] — the scheduler uses
    this after a coalesced panel sweep. *)
val mixing_reply_of :
  t -> entry -> tmix:int option -> replicas:int -> seed:int -> Protocol.reply

(** [check_eps eps] is [Ok ()] when [eps > 0.] and a [Bad_request]
    otherwise: d(t) ≥ 0, so a zero, negative or NaN threshold is never
    met and its sweep would run the whole step budget. {!eval} and
    the scheduler's Mixing grouping answer with it before building
    anything. *)
val check_eps : float -> (unit, Protocol.error) result

(** [eval t q] answers a single query serially. [Stats] is not an
    engine query (the server owns the counters) and returns
    [Server_error]. *)
val eval : t -> Protocol.query -> (Protocol.reply, Protocol.error) result

(** (in-memory chain cache hits, misses) *)
val cache_stats : t -> int * int

(** (on-disk store hits, misses); zeros without a store. *)
val store_stats : t -> int * int
