(** Eigendecomposition of symmetric tridiagonal matrices (implicit QL
    with Wilkinson shifts — the classical [tql2] routine).

    This QL loop is the one symmetric eigensolver of the library.
    Lumped birth–death chains symmetrise to tridiagonal matrices and
    call {!eigensystem} directly: O(n²) for values plus O(n³) with a
    tiny constant for vectors. Dense symmetric matrices reach it
    through {!Eigen.symmetric}, which first reduces them to
    tridiagonal form by Householder reflections and hands the
    accumulated orthogonal basis to {!eigensystem_in_basis}. *)

(** [eigensystem ~diag ~off] decomposes the symmetric tridiagonal
    matrix with diagonal [diag] (length n) and sub/super-diagonal
    [off] (length n-1; an empty array for n = 1). Returns eigenvalues
    sorted in non-increasing order and the matrix of eigenvectors
    (column k pairs with eigenvalue k). Raises [Common.No_convergence]
    when one eigenvalue needs more than 50 QL sweeps and
    [Invalid_argument] on mismatched lengths. *)
val eigensystem : diag:float array -> off:float array -> float array * Mat.t

(** [eigensystem_in_basis ~basis ~diag ~off] decomposes Bᵀ T B, where
    T is the tridiagonal matrix of {!eigensystem} and B = [basis] is
    an n×n orthogonal matrix: the QL rotations are accumulated into
    the rows of B instead of the identity's, so column k of the result
    is Bᵀ z_k for the k-th eigenvector z_k of T. [basis] is
    overwritten. [eigensystem ~diag ~off] is this call with B = I.
    Same ordering, exceptions and validation as {!eigensystem}, plus
    [Invalid_argument] when [basis] is not n×n. *)
val eigensystem_in_basis :
  basis:Mat.t -> diag:float array -> off:float array -> float array * Mat.t

(** [eigenvalues ~diag ~off] returns only the sorted eigenvalues. *)
val eigenvalues : diag:float array -> off:float array -> float array
