open Helpers
open Linalg

(* ----- Vec ----- *)

let vec_basic () =
  let v = Vec.init 4 float_of_int in
  check_int "dim" 4 (Vec.dim v);
  check_float "sum" 6. (Vec.sum v);
  check_float "norm1" 6. (Vec.norm1 v);
  check_float "norm_inf" 3. (Vec.norm_inf v);
  check_float "norm2" (sqrt 14.) (Vec.norm2 v);
  check_int "max_index" 3 (Vec.max_index v);
  check_int "min_index" 0 (Vec.min_index v)

let vec_arith () =
  let x = [| 1.; 2.; 3. |] and y = [| 4.; 5.; 6. |] in
  check_array "add" [| 5.; 7.; 9. |] (Vec.add x y);
  check_array "sub" [| -3.; -3.; -3. |] (Vec.sub x y);
  check_array "scale" [| 2.; 4.; 6. |] (Vec.scale 2. x);
  check_float "dot" 32. (Vec.dot x y);
  let z = Vec.copy y in
  Vec.axpy ~alpha:2. x z;
  check_array "axpy" [| 6.; 9.; 12. |] z

let vec_normalize () =
  check_array "normalize" [| 0.25; 0.75 |] (Vec.normalize_l1 [| 1.; 3. |]);
  check_raises_invalid "zero mass" (fun () -> Vec.normalize_l1 [| 0.; 0. |]);
  check_raises_invalid "dim mismatch" (fun () -> Vec.add [| 1. |] [| 1.; 2. |])

let vec_approx () =
  check_true "close" (Vec.approx_equal ~tol:1e-6 [| 1.; 2. |] [| 1.; 2. +. 1e-7 |]);
  check_false "far" (Vec.approx_equal ~tol:1e-9 [| 1. |] [| 1.001 |]);
  check_false "length" (Vec.approx_equal [| 1. |] [| 1.; 2. |])

(* ----- Mat ----- *)

let mat_basic () =
  let m = Mat.init 2 3 (fun i j -> float_of_int ((3 * i) + j)) in
  check_int "rows" 2 (fst (Mat.dims m));
  check_int "cols" 3 (snd (Mat.dims m));
  check_float "get" 5. (Mat.get m 1 2);
  check_array "row" [| 3.; 4.; 5. |] (Mat.row m 1);
  check_array "col" [| 2.; 5. |] (Mat.col m 2);
  let mt = Mat.transpose m in
  check_int "t rows" 3 (fst (Mat.dims mt));
  check_float "t get" 5. (Mat.get mt 2 1)

let mat_mul () =
  let a = Mat.of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = Mat.of_rows [| [| 5.; 6. |]; [| 7.; 8. |] |] in
  let c = Mat.mul a b in
  check_array "mul row0" [| 19.; 22. |] (Mat.row c 0);
  check_array "mul row1" [| 43.; 50. |] (Mat.row c 1);
  check_array "mulv" [| 5.; 11. |] (Mat.mulv a [| 1.; 2. |]);
  check_array "vmul" [| 7.; 10. |] (Mat.vmul [| 1.; 2. |] a)

let mat_pow () =
  let a = Mat.of_rows [| [| 1.; 1. |]; [| 0.; 1. |] |] in
  let a5 = Mat.pow a 5 in
  check_float "pow upper" 5. (Mat.get a5 0 1);
  check_true "pow 0 = I" (Mat.approx_equal (Mat.pow a 0) (Mat.identity 2));
  check_raises_invalid "neg pow" (fun () -> Mat.pow a (-1))

let mat_props () =
  let sym = Mat.of_rows [| [| 2.; 1. |]; [| 1.; 3. |] |] in
  check_true "symmetric" (Mat.is_symmetric sym);
  check_float "trace" 5. (Mat.trace sym);
  let asym = Mat.of_rows [| [| 2.; 1. |]; [| 0.; 3. |] |] in
  check_false "not symmetric" (Mat.is_symmetric asym);
  let i, j, v = Mat.max_abs_offdiag (Mat.of_rows [| [| 0.; -5. |]; [| 2.; 0. |] |]) in
  check_int "offdiag i" 0 i;
  check_int "offdiag j" 1 j;
  check_float "offdiag v" 5. v

let mat_invalid () =
  check_raises_invalid "ragged" (fun () -> Mat.of_rows [| [| 1. |]; [| 1.; 2. |] |]);
  check_raises_invalid "empty" (fun () -> Mat.of_rows [||]);
  check_raises_invalid "mul dims" (fun () ->
      Mat.mul (Mat.create 2 3 0.) (Mat.create 2 3 0.))

(* ----- Lu ----- *)

let lu_solve () =
  let a = Mat.of_rows [| [| 4.; 3. |]; [| 6.; 3. |] |] in
  let x = Lu.solve a [| 10.; 12. |] in
  check_array ~tol:1e-12 "solve" [| 1.; 2. |] x

let lu_solve_bigger () =
  (* Random well-conditioned system: check A x = b. *)
  let r = rng () in
  let n = 12 in
  let a = Mat.init n n (fun i j -> Prob.Rng.float r +. if i = j then 5. else 0.) in
  let b = Array.init n (fun i -> float_of_int i) in
  let x = Lu.solve a b in
  let back = Mat.mulv a x in
  check_array ~tol:1e-9 "Ax=b" b back

let lu_determinant () =
  check_float "det" (-2.)
    (Lu.determinant (Mat.of_rows [| [| 1.; 2. |]; [| 3.; 4. |] |]));
  check_float "det singular" 0.
    (Lu.determinant (Mat.of_rows [| [| 1.; 2. |]; [| 2.; 4. |] |]));
  check_float "det identity" 1. (Lu.determinant (Mat.identity 5))

let lu_inverse () =
  let a = Mat.of_rows [| [| 4.; 7. |]; [| 2.; 6. |] |] in
  let inv = Lu.inverse a in
  check_true "A * A^-1 = I"
    (Mat.approx_equal ~tol:1e-12 (Mat.mul a inv) (Mat.identity 2))

let lu_singular () =
  match Lu.solve (Mat.of_rows [| [| 1.; 1. |]; [| 1.; 1. |] |]) [| 1.; 2. |] with
  | exception Lu.Singular -> ()
  | _ -> Alcotest.fail "expected Singular"

(* ----- Eigen ----- *)

(* The jacobi cases pin the test-side oracle (test/jacobi.ml) that the
   library solver is checked against below. *)

let jacobi_known () =
  (* [[2,1],[1,2]] has eigenvalues 3 and 1. *)
  let values, vectors =
    Jacobi.eigensystem (Mat.of_rows [| [| 2.; 1. |]; [| 1.; 2. |] |])
  in
  check_array ~tol:1e-10 "values" [| 3.; 1. |] values;
  (* Eigenvector for 3 is (1,1)/sqrt 2 up to sign. *)
  let v0 = Mat.col vectors 0 in
  check_float ~tol:1e-10 "vector ratio" 1. (v0.(0) /. v0.(1))

let jacobi_diag () =
  let values = Jacobi.eigenvalues (Mat.of_rows [| [| 5.; 0. |]; [| 0.; -2. |] |]) in
  check_array "diag" [| 5.; -2. |] values

let jacobi_reconstruction () =
  (* A = V diag(values) V^T for a random symmetric matrix. *)
  let r = rng ~seed:3 () in
  let n = 8 in
  let m0 = Mat.init n n (fun _ _ -> Prob.Rng.float r -. 0.5) in
  let a = Mat.scale 0.5 (Mat.add m0 (Mat.transpose m0)) in
  let values, v = Jacobi.eigensystem a in
  let d = Mat.init n n (fun i j -> if i = j then values.(i) else 0.) in
  let rebuilt = Mat.mul (Mat.mul v d) (Mat.transpose v) in
  check_true "V D V^T = A" (Mat.approx_equal ~tol:1e-8 rebuilt a)

let jacobi_orthogonal () =
  let r = rng ~seed:4 () in
  let n = 6 in
  let m0 = Mat.init n n (fun _ _ -> Prob.Rng.float r) in
  let a = Mat.scale 0.5 (Mat.add m0 (Mat.transpose m0)) in
  let _, v = Jacobi.eigensystem a in
  check_true "V^T V = I"
    (Mat.approx_equal ~tol:1e-9 (Mat.mul (Mat.transpose v) v) (Mat.identity n))

let jacobi_rejects_asymmetric () =
  check_raises_invalid "asymmetric" (fun () ->
      Jacobi.eigensystem (Mat.of_rows [| [| 1.; 2. |]; [| 0.; 1. |] |]))

let frobenius m = sqrt (Array.fold_left (fun acc x -> acc +. (x *. x)) 0. m.Mat.data)

(* The contract of Eigen.symmetric on one matrix, with Jacobi as the
   oracle: eigenvalues non-increasing and within 1e-12·max(1, ‖A‖_F)
   of Jacobi's, ‖AV − VΛ‖_F ≤ 1e-10 and ‖VᵀV − I‖_F ≤ 1e-10. Returns
   the first violation, if any. *)
let symmetric_violation a =
  let n = fst (Mat.dims a) in
  let values, v = Eigen.symmetric a in
  let oracle = Jacobi.eigenvalues a in
  let tol = 1e-12 *. Float.max 1. (frobenius a) in
  let lambda = Mat.init n n (fun i j -> if i = j then values.(i) else 0.) in
  let residual = frobenius (Mat.sub (Mat.mul a v) (Mat.mul v lambda)) in
  let orthogonality = frobenius (Mat.sub (Mat.mul (Mat.transpose v) v) (Mat.identity n)) in
  let worst = ref 0. in
  Array.iteri (fun i x -> worst := Float.max !worst (Float.abs (x -. oracle.(i)))) values;
  let sorted = ref true in
  for i = 1 to Array.length values - 1 do
    if values.(i) > values.(i - 1) then sorted := false
  done;
  if Array.length values <> n || Mat.dims v <> (n, n) then Some "wrong shapes"
  else if not !sorted then Some "eigenvalues not non-increasing"
  else if not (!worst <= tol) then
    Some (Printf.sprintf "eigenvalues off Jacobi by %.3g (tol %.3g)" !worst tol)
  else if not (residual <= 1e-10) then Some (Printf.sprintf "|AV - VL|_F = %.3g" residual)
  else if not (orthogonality <= 1e-10) then
    Some (Printf.sprintf "|V'V - I|_F = %.3g" orthogonality)
  else None

let random_symmetric r n =
  let m0 = Mat.init n n (fun _ _ -> (2. *. Prob.Rng.float r) -. 1.) in
  Mat.scale 0.5 (Mat.add m0 (Mat.transpose m0))

(* Q Λ Qᵀ with Λ drawn from three values, so eigenvalues repeat; Q is
   a product of two Householder reflections. *)
let repeated_spectrum r n =
  let reflection () =
    let v = Array.init n (fun _ -> Prob.Rng.float r -. 0.5) in
    let vv = Array.fold_left (fun acc x -> acc +. (x *. x)) 0. v in
    Mat.init n n (fun i j ->
        (if i = j then 1. else 0.) -. (if vv > 0. then 2. *. v.(i) *. v.(j) /. vv else 0.))
  in
  let q = Mat.mul (reflection ()) (reflection ()) in
  let choices = [| -1.; 0.5; 2. |] in
  let lambda =
    Mat.init n n (fun i j -> if i = j then choices.(Prob.Rng.int r 3) else 0.)
  in
  let a = Mat.mul (Mat.mul q lambda) (Mat.transpose q) in
  Mat.scale 0.5 (Mat.add a (Mat.transpose a))

let block_diagonal r n =
  let cut = Prob.Rng.int r (n + 1) in
  let top = random_symmetric r cut and bottom = random_symmetric r (n - cut) in
  Mat.init n n (fun i j ->
      if i < cut && j < cut then Mat.get top i j
      else if i >= cut && j >= cut then Mat.get bottom (i - cut) (j - cut)
      else 0.)

let symmetric_matches_jacobi =
  QCheck.Test.make ~name:"symmetric = jacobi on random symmetric matrices" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let r = Prob.Rng.create seed in
      let n = 1 + Prob.Rng.int r 40 in
      let kind, a =
        match seed mod 5 with
        | 0 -> ("dense", random_symmetric r n)
        | 1 ->
            (* Diagonal, with repeated entries. *)
            ( "diagonal",
              Mat.init n n (fun i j ->
                  if i = j then float_of_int (Prob.Rng.int r 4) else 0.) )
        | 2 -> ("zero", Mat.create n n 0.)
        | 3 -> ("repeated", repeated_spectrum r n)
        | _ -> ("block", block_diagonal r n)
      in
      (match symmetric_violation a with
      | None -> ()
      | Some why -> QCheck.Test.fail_reportf "%s n=%d: %s" kind n why);
      (* Any entry pulled off its mirror by more than the 1e-8 symmetry
         tolerance is rejected. *)
      if n >= 2 then begin
        let i = Prob.Rng.int r n in
        let j = (i + 1 + Prob.Rng.int r (n - 1)) mod n in
        let skewed =
          Mat.init n n (fun p q -> Mat.get a p q +. if p = i && q = j then 1e-6 else 0.)
        in
        match Eigen.symmetric skewed with
        | exception Invalid_argument _ -> ()
        | _ -> QCheck.Test.fail_reportf "%s n=%d: asymmetric input accepted" kind n
      end;
      true)

let symmetric_on_logit_chains () =
  List.iter
    (fun game ->
      List.iter
        (fun n ->
          List.iter
            (fun beta ->
              let chain, pi = catalog_chain game ~n ~beta in
              match symmetric_violation (Markov.Spectral.symmetrize chain pi) with
              | None -> ()
              | Some why -> Alcotest.failf "%s n=%d beta=%g: %s" game n beta why)
            [ 0.5; 2. ])
        [ 3; 4; 5 ])
    [ "ring"; "clique"; "curve" ]

let symmetric_edges () =
  let values, vectors = Eigen.symmetric (Mat.create 0 0 0.) in
  check_int "empty values" 0 (Array.length values);
  check_true "empty vectors" (Mat.dims vectors = (0, 0));
  let values, vectors = Eigen.symmetric (Mat.of_rows [| [| -3. |] |]) in
  check_array "1x1 value" [| -3. |] values;
  check_array "1x1 vector" [| 1. |] vectors.Mat.data;
  check_array "eigenvalues = fst symmetric"
    (fst (Eigen.symmetric (random_symmetric (rng ~seed:6 ()) 9)))
    (Eigen.eigenvalues (random_symmetric (rng ~seed:6 ()) 9));
  check_raises_invalid "asymmetric" (fun () ->
      Eigen.symmetric (Mat.of_rows [| [| 1.; 2. |]; [| 0.; 1. |] |]));
  check_raises_invalid "non-square" (fun () -> Eigen.symmetric (Mat.create 2 3 0.))

let power_iteration_basic () =
  let a = Mat.of_rows [| [| 2.; 1. |]; [| 1.; 2. |] |] in
  let lambda, v = Eigen.power_iteration (Mat.mulv a) 2 in
  check_float ~tol:1e-9 "dominant" 3. lambda;
  check_float ~tol:1e-6 "eigvec" 1. (Float.abs (v.(0) /. v.(1)))

let second_eigenvalue_two_state () =
  (* Two-state chain p=0.3, q=0.2: lambda_2 = 1 - p - q = 0.5. *)
  let rows i = if i = 0 then [ (0, 0.7); (1, 0.3) ] else [ (0, 0.2); (1, 0.8) ] in
  let pi = [| 0.4; 0.6 |] in
  let lambda = Eigen.second_eigenvalue_reversible rows pi 2 in
  check_float ~tol:1e-9 "lambda2" 0.5 lambda

let general_rotation () =
  let t = 1.1 in
  let spec =
    Eigen.general_spectrum
      (Mat.of_rows [| [| cos t; -.sin t |]; [| sin t; cos t |] |])
  in
  check_float ~tol:1e-10 "re" (cos t) (fst spec.(0));
  check_float ~tol:1e-10 "im" (sin t) (Float.abs (snd spec.(0)))

let general_matches_jacobi () =
  let r = rng ~seed:5 () in
  let n = 7 in
  let m0 = Mat.init n n (fun _ _ -> Prob.Rng.float r) in
  let a = Mat.scale 0.5 (Mat.add m0 (Mat.transpose m0)) in
  let jac = Jacobi.eigenvalues a in
  let gen = Eigen.general_spectrum a in
  Array.iteri
    (fun i v ->
      check_float ~tol:1e-8 (Printf.sprintf "lambda %d" i) v (fst gen.(i));
      check_float ~tol:1e-8 "imag zero" 0. (snd gen.(i)))
    jac

let general_companion () =
  (* Companion matrix of z^4 = 1: fourth roots of unity. *)
  let c =
    Mat.of_rows
      [|
        [| 0.; 0.; 0.; 1. |];
        [| 1.; 0.; 0.; 0. |];
        [| 0.; 1.; 0.; 0. |];
        [| 0.; 0.; 1.; 0. |];
      |]
  in
  let spec = Eigen.general_spectrum c in
  (* Sorted by re desc: 1, +-i, -1. *)
  check_float ~tol:1e-9 "root 1" 1. (fst spec.(0));
  check_float ~tol:1e-9 "root i re" 0. (fst spec.(1));
  check_float ~tol:1e-9 "root i im" 1. (Float.abs (snd spec.(1)));
  check_float ~tol:1e-9 "root -1" (-1.) (fst spec.(3))

let general_trace_sum =
  QCheck.Test.make ~name:"general_spectrum: eigenvalue sum = trace" ~count:30
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let r = Prob.Rng.create seed in
      let n = 2 + Prob.Rng.int r 5 in
      let a = Mat.init n n (fun _ _ -> Prob.Rng.float r -. 0.5) in
      let spec = Eigen.general_spectrum a in
      let sum_re = Array.fold_left (fun acc (re, _) -> acc +. re) 0. spec in
      let sum_im = Array.fold_left (fun acc (_, im) -> acc +. im) 0. spec in
      Float.abs (sum_re -. Mat.trace a) < 1e-6 && Float.abs sum_im < 1e-6)

let lu_det_product =
  QCheck.Test.make ~name:"det(AB) = det(A)det(B)" ~count:30
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let r = Prob.Rng.create seed in
      let n = 2 + Prob.Rng.int r 4 in
      let a = Mat.init n n (fun _ _ -> Prob.Rng.float r -. 0.5) in
      let b = Mat.init n n (fun _ _ -> Prob.Rng.float r -. 0.5) in
      let lhs = Lu.determinant (Mat.mul a b) in
      let rhs = Lu.determinant a *. Lu.determinant b in
      Float.abs (lhs -. rhs) <= 1e-6 *. (1. +. Float.abs rhs))

let suites =
  [
    ( "linalg.vec",
      [
        test "basics" vec_basic;
        test "arithmetic" vec_arith;
        test "normalize & errors" vec_normalize;
        test "approx_equal" vec_approx;
      ] );
    ( "linalg.mat",
      [
        test "basics" mat_basic;
        test "multiplication" mat_mul;
        test "power" mat_pow;
        test "properties" mat_props;
        test "invalid input" mat_invalid;
      ] );
    ( "linalg.lu",
      [
        test "solve 2x2" lu_solve;
        test "solve 12x12" lu_solve_bigger;
        test "determinant" lu_determinant;
        test "inverse" lu_inverse;
        test "singular" lu_singular;
        qcheck lu_det_product;
      ] );
    ( "linalg.eigen",
      [
        test "jacobi known" jacobi_known;
        test "jacobi diagonal" jacobi_diag;
        test "jacobi reconstruction" jacobi_reconstruction;
        test "jacobi orthogonality" jacobi_orthogonal;
        test "jacobi rejects asymmetric" jacobi_rejects_asymmetric;
        qcheck symmetric_matches_jacobi;
        test "symmetric on symmetrised logit chains" symmetric_on_logit_chains;
        test "symmetric: empty, 1x1, invalid input" symmetric_edges;
        test "power iteration" power_iteration_basic;
        test "second eigenvalue 2-state" second_eigenvalue_two_state;
        test "general: rotation" general_rotation;
        test "general vs jacobi" general_matches_jacobi;
        test "general: companion" general_companion;
        qcheck general_trace_sum;
      ] );
  ]
