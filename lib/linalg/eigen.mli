(** Eigenvalue computations.

    Two engines are provided:

    - a dense symmetric solver for full spectra and eigenvectors:
      Householder reduction to tridiagonal form followed by the
      implicit QL loop of {!Tridiag} (O(n³), suitable for state spaces
      up to a few thousand states);
    - power iteration with optional deflation for the leading and
      second eigenvalues of large matrices where only matrix-vector
      products are affordable.

    Reversible Markov chains are handled upstream by symmetrising the
    transition matrix; the eigenvalues are invariant under that
    similarity transform. *)

(** Full spectrum of a symmetric matrix.

    [symmetric m] returns the eigenvalues of the symmetric matrix [m]
    sorted in non-increasing order, together with the orthogonal
    matrix of corresponding eigenvectors (column [k] pairs with
    eigenvalue [k]). A copy of [m] is reduced to tridiagonal form by
    Householder reflections (EISPACK [tred2]), whose accumulated
    orthogonal basis then seeds the QL rotations of
    {!Tridiag.eigensystem_in_basis} ([tql2]); the reduction reads
    only the upper triangle of [m].

    Raises [Invalid_argument] if [m] is not symmetric to within
    [1e-8], and [Common.No_convergence] if one eigenvalue needs more
    than 50 QL sweeps. *)
val symmetric : Mat.t -> float array * Mat.t

(** [eigenvalues m] is [fst (symmetric m)]. *)
val eigenvalues : Mat.t -> float array

(** [power_iteration ?tol ?max_iter ?seed av n] estimates the dominant
    eigenvalue (largest absolute value) and a unit eigenvector of the
    linear operator [av : Vec.t -> Vec.t] acting on dimension [n].
    Convergence is declared when the eigenvalue estimate moves by less
    than [tol] (default [1e-12]) between iterations; gives up after
    [max_iter] (default [100_000]) iterations and returns the current
    estimate. *)
val power_iteration :
  ?tol:float -> ?max_iter:int -> ?seed:int -> (Vec.t -> Vec.t) -> int ->
  float * Vec.t

(** [second_eigenvalue_reversible ?tol ?max_iter row pi n] computes the
    second-largest eigenvalue of a reversible stochastic matrix with
    stationary distribution [pi], given the sparse row accessor [row]
    (state [i] maps to its non-zero transitions). The operator is
    symmetrised as [A = D^{1/2} P D^{-1/2}] with [D = diag pi]; its
    dominant eigenvector [sqrt pi] (eigenvalue 1) is deflated away and
    power iteration finds the next eigenvalue. The result is the
    eigenvalue of largest absolute value other than 1, i.e. λ★ in the
    relaxation-time formula. *)
val second_eigenvalue_reversible :
  ?tol:float -> ?max_iter:int -> (int -> (int * float) list) -> Vec.t -> int ->
  float

(** [general_spectrum m] computes all eigenvalues of an arbitrary real
    square matrix as [(re, im)] pairs, sorted by decreasing real part
    (ties by decreasing imaginary part). The implementation is the
    classic dense path: reduction to upper Hessenberg form by stabilised
    elementary eliminations, followed by the Francis double-shift QR
    iteration. Needed for logit chains of {e non-potential} games,
    which are non-reversible and can have complex spectra (the
    situation ruled out for potential games by Theorem 3.1 of the
    paper). Raises [Common.No_convergence] if a root fails to converge
    within 30×2 iterations (exceptional shifts included), and
    [Invalid_argument] on non-square input. *)
val general_spectrum : Mat.t -> (float * float) array

(** [second_eigenpair_reversible ?tol ?max_iter row pi n] is
    {!second_eigenvalue_reversible} but also returns the eigenvector of
    the {e symmetrised} operator (entries pair with states; the
    corresponding eigenfunction of P is entry/√π, same signs). *)
val second_eigenpair_reversible :
  ?tol:float -> ?max_iter:int -> (int -> (int * float) list) -> Vec.t -> int ->
  float * Vec.t
