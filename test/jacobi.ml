(* Cyclic Jacobi eigensolver for symmetric matrices: the test-side
   oracle for Linalg.Eigen.symmetric. It shares no code with the
   Householder + QL solver it checks. Rotations zero one off-diagonal
   entry at a time, sweeping every (p, q) pair, until the off-diagonal
   Frobenius mass is below 1e-12 or 100 sweeps have run. It returns
   the eigenvalues in non-increasing order, with column k of the
   eigenvector matrix paired with eigenvalue k, and raises
   Invalid_argument on asymmetric input. *)

open Linalg

let off_diagonal_mass m =
  let n = fst (Mat.dims m) in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let x = Mat.get m i j in
      acc := !acc +. (2. *. x *. x)
    done
  done;
  sqrt !acc

(* One Jacobi rotation annihilating entry (p, q), updating both the
   working matrix [a] and the accumulated eigenvector matrix [v]. *)
let rotate a v p q =
  let apq = Mat.get a p q in
  (* lint: allow float-equality — the rotation is a no-op only on an exact zero *)
  if apq <> 0. then begin
    let app = Mat.get a p p and aqq = Mat.get a q q in
    let theta = (aqq -. app) /. (2. *. apq) in
    (* Stable formula for t = tan of the rotation angle. *)
    let t =
      let s = if theta >= 0. then 1. else -1. in
      s /. (Float.abs theta +. sqrt ((theta *. theta) +. 1.))
    in
    let c = 1. /. sqrt ((t *. t) +. 1.) in
    let s = t *. c in
    let n = fst (Mat.dims a) in
    for k = 0 to n - 1 do
      let akp = Mat.get a k p and akq = Mat.get a k q in
      Mat.set a k p ((c *. akp) -. (s *. akq));
      Mat.set a k q ((s *. akp) +. (c *. akq))
    done;
    for k = 0 to n - 1 do
      let apk = Mat.get a p k and aqk = Mat.get a q k in
      Mat.set a p k ((c *. apk) -. (s *. aqk));
      Mat.set a q k ((s *. apk) +. (c *. aqk))
    done;
    for k = 0 to n - 1 do
      let vkp = Mat.get v k p and vkq = Mat.get v k q in
      Mat.set v k p ((c *. vkp) -. (s *. vkq));
      Mat.set v k q ((s *. vkp) +. (c *. vkq))
    done
  end

let eigensystem m =
  if not (Mat.is_symmetric ~tol:1e-8 m) then
    invalid_arg "Jacobi.eigensystem: matrix is not symmetric";
  let n = fst (Mat.dims m) in
  let a = Mat.copy m in
  let v = Mat.identity n in
  if n > 1 then begin
    let sweep = ref 0 in
    while off_diagonal_mass a > 1e-12 && !sweep < 100 do
      incr sweep;
      for p = 0 to n - 2 do
        for q = p + 1 to n - 1 do
          rotate a v p q
        done
      done
    done
  end;
  let order = Array.init n Fun.id in
  Array.sort (fun i j -> compare (Mat.get a j j) (Mat.get a i i)) order;
  let values = Array.map (fun i -> Mat.get a i i) order in
  let vectors = Mat.init n n (fun i k -> Mat.get v i order.(k)) in
  (values, vectors)

let eigenvalues m = fst (eigensystem m)
