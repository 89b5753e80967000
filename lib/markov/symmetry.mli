(** Verified state-space symmetries and the start sets they reduce.

    Exact d(t) is a maximum over every start x of
    ‖Pᵗ(x,·) − π‖_TV. If a permutation σ of the states satisfies
    P(σx, σy) = P(x, y) and π(σx) = π(x) for all x and y, then
    Pᵗ(σx, σ·) = Pᵗ(x, ·) and d_σx(t) = d_x(t): one start per orbit of
    the group generated by such σ gives the same maximum. This
    generalises [Logit.Lumping]'s Hamming-weight projection (the Sₙ
    orbits of clique and curve games) to any group a caller can name.

    The module is game-agnostic: it sees a chain, its stationary law
    and candidate state permutations (e.g. graph automorphisms or
    strategy relabellings lifted to profile indices). A candidate is
    used only after {!verify} has checked it against every stored
    transition and every π entry; nothing is assumed. *)

(** [verify t pi sigma] is true iff [sigma] is a symmetry of the chain
    [t] with stationary law [pi]: a bijection of [{0, …, size t − 1}]
    such that, for every state x, rows x and σx have the same number of
    stored transitions, every stored P(x, y) matches P(σx, σy) (an
    entry absent from row σx is a structural mismatch), and π(σx)
    matches π(x). [a] matches [b] when |a − b| ≤ 1e-13·max(|a|, |b|),
    a fixed tolerance: the built chains are symmetric only up to the
    rounding of their own construction. The scan stops at the first
    mismatch. Raises [Invalid_argument] if [pi] does not have [size t]
    entries. *)
val verify : Chain.t -> float array -> int array -> bool

(** [orbit_representatives ~size gens] is the smallest state of each
    orbit of the group generated by the permutations [gens] of
    [{0, …, size − 1}], in ascending order (union-find over the
    generators). Every generator must already be a bijection of that
    range ([Invalid_argument] otherwise); with no generators every
    state is its own orbit. *)
val orbit_representatives : size:int -> int array list -> int list

(** [starts t pi candidates] keeps the candidates that pass {!verify}
    and returns {!orbit_representatives} of the group they generate:
    a start set on which exact d(t) equals its value over every
    state. *)
val starts : Chain.t -> float array -> int array list -> int list
