(** Spectral analysis of reversible chains.

    A reversible chain with stationary distribution π is similar to
    the symmetric matrix A = D^{1/2} P D^{-1/2} (D = diag π), so its
    spectrum is real and computable with the dense symmetric solver
    {!Linalg.Eigen.symmetric}. Theorem
    3.1 of the paper shows that for logit chains of potential games
    the whole spectrum is non-negative, hence λ★ = λ₂ and
    t_rel = 1/(1-λ₂). *)

(** [symmetrize t pi] is the dense symmetric matrix
    A = D^{1/2} P D^{-1/2}. Raises [Invalid_argument] when the chain
    is not reversible w.r.t. [pi] (the result would not be
    symmetric). *)
val symmetrize : Chain.t -> float array -> Linalg.Mat.t

(** [spectrum t pi] is the full (real) spectrum of a reversible chain
    in non-increasing order; [spectrum t pi).(0) = 1]. Dense O(n³). *)
val spectrum : Chain.t -> float array -> float array

(** [lambda2 t pi] is the second-largest eigenvalue, via deflated power
    iteration on the symmetrised operator (no dense matrix needed).
    Note this returns λ★ — the largest-in-absolute-value eigenvalue
    below 1 — which equals λ₂ whenever the spectrum is non-negative
    (Theorem 3.1). *)
val lambda2 : ?tol:float -> ?max_iter:int -> Chain.t -> float array -> float

(** [relaxation_time_of_gap gap] is 1/gap; raises on non-positive
    gap. *)
val relaxation_time_of_gap : float -> float

(** [lambda_star_of_spectrum values] is λ★ = max(λ₂, |λ_min|) of a
    spectrum sorted in non-increasing order (as {!spectrum} returns
    it), so one solve can serve both the eigenvalues and the
    relaxation time. Raises [Invalid_argument] on fewer than two
    values. *)
val lambda_star_of_spectrum : float array -> float

(** [relaxation_time t pi] is 1/(1-λ★) from the full spectrum:
    λ★ = max(λ₂, |λ_min|). *)
val relaxation_time : Chain.t -> float array -> float

(** [spectral_gap t pi] is 1 - λ★. *)
val spectral_gap : Chain.t -> float array -> float

(** [min_eigenvalue t pi] is the smallest eigenvalue — the quantity
    Theorem 3.1 proves non-negative for potential-game logit chains. *)
val min_eigenvalue : Chain.t -> float array -> float
