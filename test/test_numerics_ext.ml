open Helpers

(* ----- Tridiag ----- *)

let tridiag_known_2x2 () =
  (* [[2,1],[1,2]]: eigenvalues 3 and 1, vectors (1,1)/(1,-1). *)
  let values, vectors = Linalg.Tridiag.eigensystem ~diag:[| 2.; 2. |] ~off:[| 1. |] in
  check_array ~tol:1e-12 "values" [| 3.; 1. |] values;
  let v0 = Linalg.Mat.col vectors 0 in
  check_float ~tol:1e-12 "vector" 1. (v0.(0) /. v0.(1))

let tridiag_single () =
  let values, _ = Linalg.Tridiag.eigensystem ~diag:[| 7. |] ~off:[||] in
  check_array "1x1" [| 7. |] values

let tridiag_free_particle () =
  (* Discrete Laplacian-like matrix: diag 0, off 1, size n: eigenvalues
     2 cos(k pi / (n+1)). *)
  let n = 6 in
  let values =
    Linalg.Tridiag.eigenvalues ~diag:(Array.make n 0.) ~off:(Array.make (n - 1) 1.)
  in
  let expected =
    Array.init n (fun k ->
        2. *. cos (float_of_int (k + 1) *. Float.pi /. float_of_int (n + 1)))
  in
  check_array ~tol:1e-10 "Chebyshev spectrum" expected values

let tridiag_matches_jacobi =
  QCheck.Test.make ~name:"tridiag = jacobi on random tridiagonal matrices"
    ~count:25
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let r = Prob.Rng.create seed in
      let n = 2 + Prob.Rng.int r 12 in
      let diag = Array.init n (fun _ -> Prob.Rng.float r -. 0.5) in
      let off = Array.init (n - 1) (fun _ -> Prob.Rng.float r -. 0.5) in
      let dense =
        Linalg.Mat.init n n (fun i j ->
            if i = j then diag.(i)
            else if abs (i - j) = 1 then off.(Int.min i j)
            else 0.)
      in
      let jacobi = Jacobi.eigenvalues dense in
      let tri = Linalg.Tridiag.eigenvalues ~diag ~off in
      Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-9) jacobi tri)

let tridiag_eigenvectors_valid =
  QCheck.Test.make ~name:"tridiag eigenvectors satisfy A v = lambda v" ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let r = Prob.Rng.create (seed + 13) in
      let n = 2 + Prob.Rng.int r 8 in
      let diag = Array.init n (fun _ -> Prob.Rng.float r) in
      let off = Array.init (n - 1) (fun _ -> Prob.Rng.float r) in
      let dense =
        Linalg.Mat.init n n (fun i j ->
            if i = j then diag.(i)
            else if abs (i - j) = 1 then off.(Int.min i j)
            else 0.)
      in
      let values, vectors = Linalg.Tridiag.eigensystem ~diag ~off in
      let ok = ref true in
      for k = 0 to n - 1 do
        let v = Linalg.Mat.col vectors k in
        let av = Linalg.Mat.mulv dense v in
        Array.iteri
          (fun i x -> if Float.abs (x -. (values.(k) *. v.(i))) > 1e-8 then ok := false)
          av
      done;
      !ok)

let tridiag_birth_death_agreement () =
  (* Birth_death.decomposition (tridiag path) must reproduce the dense
     Jacobi spectrum of the symmetrised chain. *)
  let bd =
    Markov.Birth_death.create ~up:[| 0.3; 0.25; 0.2; 0. |]
      ~down:[| 0.; 0.15; 0.3; 0.45 |]
  in
  let values, _ = Markov.Birth_death.decomposition bd in
  let dense = Markov.Birth_death.spectrum bd in
  check_array ~tol:1e-10 "decomposition = jacobi spectrum" dense values

let tridiag_invalid () =
  check_raises_invalid "length mismatch" (fun () ->
      ignore (Linalg.Tridiag.eigensystem ~diag:[| 1.; 2. |] ~off:[||]))

(* ----- Absorbing ----- *)

let absorbing_gambler () =
  (* Gambler's ruin on {0..4}: absorbing at 0 and 4. From i:
     P(absorb at 4) = i/4, E[steps] = i(4-i). *)
  let rows =
    Array.init 5 (fun i ->
        if i = 0 || i = 4 then [| (i, 1.) |]
        else [| (i - 1, 0.5); (i + 1, 0.5) |])
  in
  let chain = Markov.Chain.of_rows rows in
  let a = Markov.Absorbing.analyse chain in
  for i = 1 to 3 do
    check_float ~tol:1e-9
      (Printf.sprintf "ruin prob from %d" i)
      (float_of_int i /. 4.)
      (Markov.Absorbing.absorption_probability a ~start:i ~target:4);
    check_float ~tol:1e-9
      (Printf.sprintf "ruin time from %d" i)
      (float_of_int (i * (4 - i)))
      (Markov.Absorbing.expected_absorption_time a i)
  done;
  check_float "absorbing state" 0. (Markov.Absorbing.expected_absorption_time a 0);
  check_float "prob from absorbing" 1.
    (Markov.Absorbing.absorption_probability a ~start:4 ~target:4)

let absorbing_no_absorbing_state () =
  let cycle = Markov.Chain.of_rows [| [| (1, 1.) |]; [| (0, 1.) |] |] in
  check_raises_invalid "no absorbing state" (fun () ->
      ignore (Markov.Absorbing.analyse cycle))

let absorbing_br_coordination () =
  (* BR chain of a symmetric coordination game: from an off-diagonal
     profile the two equilibria are reached with probability 1/2. *)
  let game =
    Games.Coordination.to_game (Games.Coordination.of_deltas ~delta0:1. ~delta1:1.)
  in
  let a = Markov.Absorbing.analyse (Logit.Best_response.chain game) in
  check_float ~tol:1e-9 "split" 0.5
    (Markov.Absorbing.absorption_probability a ~start:1 ~target:0);
  check_float ~tol:1e-9 "split other" 0.5
    (Markov.Absorbing.absorption_probability a ~start:1 ~target:3)

(* ----- Metastability ----- *)

let metastability_two_state () =
  (* Slow two-state chain: the sign partition must separate the two
     states. *)
  let chain =
    Markov.Chain.of_rows
      [| [| (0, 0.99); (1, 0.01) |]; [| (0, 0.01); (1, 0.99) |] |]
  in
  let pi = [| 0.5; 0.5 |] in
  let negative, positive, lambda2 = Logit.Metastability.slow_partition chain pi in
  check_float ~tol:1e-12 "lambda2" 0.98 lambda2;
  check_int "split sizes" 1 (List.length negative);
  check_int "split sizes'" 1 (List.length positive);
  check_float ~tol:1e-9 "escape scale" 50.
    (Logit.Metastability.escape_time_scale ~lambda2)

let metastability_recovers_weight_cut () =
  let cg = Games.Curve_game.create ~players:6 ~global:2. ~local:1. in
  let game = Games.Curve_game.to_game cg in
  let space = Games.Curve_game.space cg in
  let beta = 3.5 in
  let chain = Logit.Logit_dynamics.chain game ~beta in
  let pi = Logit.Gibbs.stationary space (Games.Curve_game.potential cg) ~beta in
  let negative, positive, _ = Logit.Metastability.slow_partition chain pi in
  let shell = Games.Curve_game.shell cg in
  let is_cut side threshold =
    List.for_all (fun i -> Games.Strategy_space.weight space i < threshold) side
    && List.length side
       = List.length
           (List.filter
              (fun i -> Games.Strategy_space.weight space i < threshold)
              (List.init (Games.Game.size game) Fun.id))
  in
  check_true "partition is a weight cut near the shell"
    (is_cut negative shell || is_cut positive shell
    || is_cut negative (shell + 1)
    || is_cut positive (shell + 1))

let metastability_restricted () =
  let pi = [| 0.2; 0.3; 0.5 |] in
  let r = Logit.Metastability.restricted_distribution pi (fun i -> i < 2) in
  check_array ~tol:1e-12 "conditioned" [| 0.4; 0.6; 0. |] r;
  check_raises_invalid "zero mass" (fun () ->
      ignore (Logit.Metastability.restricted_distribution pi (fun _ -> false)))

let metastability_curve_shape () =
  (* Basin TV collapses before global TV moves. *)
  let cg = Games.Curve_game.create ~players:6 ~global:2. ~local:1. in
  let game = Games.Curve_game.to_game cg in
  let space = Games.Curve_game.space cg in
  let beta = 4.0 in
  let chain = Logit.Logit_dynamics.chain game ~beta in
  let pi = Logit.Gibbs.stationary space (Games.Curve_game.potential cg) ~beta in
  let shell = Games.Curve_game.shell cg in
  let basin i = Games.Strategy_space.weight space i < shell in
  let curve =
    Logit.Metastability.basin_tv_curve chain pi ~basin ~start:0 ~steps:60
  in
  let basin_tv, global_tv = curve.(60) in
  check_true "basin equilibrated" (basin_tv < 0.15);
  check_true "globally still far" (global_tv > 0.6)

(* ----- X6 registry ----- *)

let x6_runs () =
  let tables = (Experiments.Registry.find "x6").Experiments.Registry.run ~quick:true in
  check_int "two tables" 2 (List.length tables);
  let rendered = Experiments.Table.render (List.hd tables) in
  check_true "confirms weight cut" (contains_substring rendered "yes")

let suites =
  [
    ( "linalg.tridiag",
      [
        test "known 2x2" tridiag_known_2x2;
        test "1x1" tridiag_single;
        test "Chebyshev spectrum" tridiag_free_particle;
        test "birth-death agreement" tridiag_birth_death_agreement;
        test "invalid input" tridiag_invalid;
        qcheck tridiag_matches_jacobi;
        qcheck tridiag_eigenvectors_valid;
      ] );
    ( "markov.absorbing",
      [
        test "gambler's ruin" absorbing_gambler;
        test "no absorbing state" absorbing_no_absorbing_state;
        test "BR coordination split" absorbing_br_coordination;
      ] );
    ( "logit.metastability",
      [
        test "two-state" metastability_two_state;
        test "recovers weight cut" metastability_recovers_weight_cut;
        test "restricted distribution" metastability_restricted;
        test "basin vs global TV" metastability_curve_shape;
        test "x6 experiment runs" x6_runs;
      ] );
  ]

(* ----- Mean field (appended) ----- *)

let mean_field_hot_clique_single_point () =
  (* At beta = 0 the drift is (n-k)/2n - k/2n: single stable point at n/2. *)
  let points = Logit.Mean_field.clique_fixed_points ~n:20 ~delta0:1. ~delta1:1. ~beta:0. in
  check_int "one fixed point" 1 (List.length points);
  (match points with
  | [ (k, `Stable) ] -> check_true "at the centre" (k = 10)
  | _ -> Alcotest.fail "expected a single stable centre")

let mean_field_cold_clique_bistable () =
  let points =
    Logit.Mean_field.clique_fixed_points ~n:20 ~delta0:1. ~delta1:1. ~beta:0.5
  in
  let stable = List.filter (fun (_, kind) -> kind = `Stable) points in
  let unstable = List.filter (fun (_, kind) -> kind = `Unstable) points in
  check_int "two stable wells" 2 (List.length stable);
  check_int "one barrier top" 1 (List.length unstable);
  (match unstable with
  | [ (k, _) ] ->
      let kstar = Games.Graphical.clique_kstar ~n:20 ~delta0:1. ~delta1:1. in
      check_true "barrier near kstar" (abs (k - kstar) <= 1)
  | _ -> ())

let mean_field_drift_matches_rates () =
  let phi k = float_of_int (k * k) /. 10. in
  let bd = Logit.Lumping.weight_symmetric ~players:8 ~beta:0.7 phi in
  for k = 0 to 8 do
    check_float ~tol:1e-12 "drift = up - down"
      (Markov.Birth_death.up bd k -. Markov.Birth_death.down bd k)
      (Logit.Mean_field.drift ~players:8 ~beta:0.7 phi k)
  done

let mean_field_flow_reaches_well () =
  (* Starting past the barrier, the flow must slide into the nearest well. *)
  let n = 20 and beta = 0.5 in
  let phi k = Games.Graphical.clique_potential ~n ~delta0:1. ~delta1:1. k in
  let traj =
    Logit.Mean_field.trajectory ~players:n ~beta phi ~start:14. ~steps:2_000
  in
  check_true "converges to the 1-well" (traj.(2_000) > 18.);
  let traj0 =
    Logit.Mean_field.trajectory ~players:n ~beta phi ~start:6. ~steps:2_000
  in
  check_true "converges to the 0-well" (traj0.(2_000) < 2.)

let suites =
  suites
  @ [
      ( "logit.mean_field",
        [
          test "hot clique: single point" mean_field_hot_clique_single_point;
          test "cold clique: bistable" mean_field_cold_clique_bistable;
          test "drift matches rates" mean_field_drift_matches_rates;
          test "flow reaches wells" mean_field_flow_reaches_well;
        ] );
    ]
