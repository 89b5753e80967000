open Helpers
open Prob

(* ----- Rng ----- *)

let rng_deterministic () =
  let a = Rng.create 99 and b = Rng.create 99 in
  for i = 0 to 20 do
    check_true (Printf.sprintf "same stream %d" i) (Rng.bits64 a = Rng.bits64 b)
  done

let rng_copy_independent () =
  let a = Rng.create 1 in
  let b = Rng.copy a in
  check_true "copy equal" (Rng.bits64 a = Rng.bits64 b);
  let c = Rng.split a in
  check_false "split diverges" (Rng.bits64 a = Rng.bits64 c)

let rng_float_range () =
  let r = rng () in
  for _ = 1 to 1000 do
    let x = Rng.float r in
    check_true "in [0,1)" (x >= 0. && x < 1.)
  done

let rng_int_uniform () =
  let r = rng () in
  let counts = Array.make 5 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let k = Rng.int r 5 in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iteri
    (fun k c ->
      let freq = float_of_int c /. float_of_int n in
      check_float ~tol:0.02 (Printf.sprintf "freq %d" k) 0.2 freq)
    counts;
  check_raises_invalid "bound 0" (fun () -> Rng.int r 0)

let rng_bernoulli_mean () =
  let r = rng () in
  let hits = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Rng.bernoulli r 0.3 then incr hits
  done;
  check_float ~tol:0.02 "bernoulli mean" 0.3 (float_of_int !hits /. float_of_int n)

let rng_categorical () =
  let r = rng () in
  let w = [| 1.; 0.; 3. |] in
  let counts = Array.make 3 0 in
  let n = 40_000 in
  for _ = 1 to n do
    let k = Rng.categorical r w in
    counts.(k) <- counts.(k) + 1
  done;
  check_int "zero-weight never drawn" 0 counts.(1);
  check_float ~tol:0.02 "weight 1/4" 0.25 (float_of_int counts.(0) /. float_of_int n);
  check_raises_invalid "negative weight" (fun () -> Rng.categorical r [| -1.; 2. |]);
  check_raises_invalid "zero total" (fun () -> Rng.categorical r [| 0.; 0. |]);
  (* The shared validation: every weight array categorical rejects,
     categorical_total rejects too, before any draw. *)
  List.iter
    (fun (name, w) ->
      let before = Rng.copy r in
      check_raises_invalid ("total: " ^ name) (fun () -> Rng.categorical_total w);
      check_raises_invalid ("categorical: " ^ name) (fun () -> Rng.categorical r w);
      check_true ("no draw on " ^ name) (Rng.bits64 before = Rng.bits64 r))
    [
      ("empty", [||]);
      ("negative", [| 1.; -0.5 |]);
      ("nan", [| nan; 1. |]);
      ("zero total", [| 0.; 0. |]);
    ];
  check_true "total is the left fold, bit for bit"
    (Int64.bits_of_float (Rng.categorical_total [| 0.1; 0.2; 0.3 |])
    = Int64.bits_of_float (0.1 +. 0.2 +. 0.3))

let rng_categorical_boundaries () =
  (* The deterministic selection core, driven by explicit thresholds. *)
  let w = [| 1.; 0.; 3. |] in
  check_int "u in first weight" 0 (Rng.categorical_pick w ~u:0.5);
  check_int "zero weight skipped at its prefix" 2 (Rng.categorical_pick w ~u:1.0);
  check_int "u in last weight" 2 (Rng.categorical_pick w ~u:3.9);
  (* u at or past the accumulated mass (float rounding of u = unif *
     total) must fall back to the last strictly positive weight... *)
  check_int "u = total falls back" 2 (Rng.categorical_pick w ~u:4.0);
  check_int "u past total falls back" 2 (Rng.categorical_pick w ~u:4.5);
  (* ... and never land on a zero-weight tail. *)
  let tail = [| 1.; 3.; 0.; 0. |] in
  check_int "zero tail skipped on fallback" 1 (Rng.categorical_pick tail ~u:4.0);
  (* A zero-weight head is unreachable even at u = 0. *)
  check_int "zero head skipped at u=0" 1 (Rng.categorical_pick [| 0.; 2. |] ~u:0.);
  (* categorical = categorical_pick on the same stream. *)
  let a = rng () and b = rng () in
  for _ = 1 to 1_000 do
    let direct = Rng.categorical a w in
    let picked = Rng.categorical_pick w ~u:(Rng.float b *. Rng.categorical_total w) in
    check_int "categorical = pick of scaled uniform" picked direct
  done

let rng_exponential_mean () =
  let r = rng () in
  let n = 50_000 in
  let acc = ref 0. in
  for _ = 1 to n do
    acc := !acc +. Rng.exponential r ~rate:2.
  done;
  check_float ~tol:0.02 "exp mean 1/rate" 0.5 (!acc /. float_of_int n)

let rng_geometric_mean () =
  let r = rng () in
  let n = 50_000 in
  let acc = ref 0 in
  for _ = 1 to n do
    acc := !acc + Rng.geometric r 0.25
  done;
  (* mean failures = (1-p)/p = 3 *)
  check_float ~tol:0.1 "geometric mean" 3. (float_of_int !acc /. float_of_int n)

let rng_shuffle_permutes () =
  let r = rng () in
  let a = Array.init 10 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check_array ~tol:0. "permutation"
    (Array.init 10 float_of_int)
    (Array.map float_of_int sorted)

(* ----- Logspace ----- *)

let logspace_basic () =
  check_float ~tol:1e-12 "logsumexp" (log 3.) (Logspace.logsumexp [| 0.; 0.; 0. |]);
  check_float ~tol:1e-12 "logsumexp2" (log 2.) (Logspace.logsumexp2 0. 0.);
  check_float "neg_infinity" neg_infinity (Logspace.logsumexp [||]);
  check_float "all -inf" neg_infinity
    (Logspace.logsumexp [| neg_infinity; neg_infinity |])

let logspace_huge () =
  (* Stability: values that would overflow exp directly. *)
  let z = Logspace.logsumexp [| 1000.; 1000. |] in
  check_float ~tol:1e-9 "huge" (1000. +. log 2.) z;
  let p = Logspace.normalize_logs [| 1000.; 1000. +. log 3. |] in
  check_array ~tol:1e-12 "normalize huge" [| 0.25; 0.75 |] p

let logsumexp2_infinities () =
  (* Regression: [m = infinity] used to produce [inf -. inf = nan]
     inside [exp]; an infinite argument must dominate exactly as in
     [logsumexp]. *)
  (* Exact equality: check_float would let a NaN slip through (every
     comparison against NaN is false). *)
  check_true "inf + finite" (Logspace.logsumexp2 infinity 0. = infinity);
  check_true "finite + inf" (Logspace.logsumexp2 1000. infinity = infinity);
  check_true "inf + inf" (Logspace.logsumexp2 infinity infinity = infinity);
  check_true "inf + -inf" (Logspace.logsumexp2 infinity neg_infinity = infinity);
  check_true "-inf + -inf"
    (Logspace.logsumexp2 neg_infinity neg_infinity = neg_infinity);
  check_float ~tol:1e-12 "-inf + finite" 5. (Logspace.logsumexp2 neg_infinity 5.);
  (* Agreement with the n-ary version on the same pairs. *)
  List.iter
    (fun (a, b) ->
      check_true "matches logsumexp"
        (Logspace.logsumexp [| a; b |] = Logspace.logsumexp2 a b))
    [ (infinity, 0.); (0., infinity); (infinity, neg_infinity) ];
  check_float ~tol:1e-12 "matches logsumexp (finite)"
    (Logspace.logsumexp [| 3.; 4. |])
    (Logspace.logsumexp2 3. 4.)

let logspace_log1mexp () =
  check_float ~tol:1e-12 "log1mexp" (log (1. -. exp (-1.))) (Logspace.log1mexp (-1.));
  check_float ~tol:1e-12 "log1mexp small"
    (log (-.Float.expm1 (-1e-10)))
    (Logspace.log1mexp (-1e-10));
  check_raises_invalid "positive arg" (fun () -> ignore (Logspace.log1mexp 0.1))

(* ----- Dist ----- *)

let dist_basic () =
  let d = Dist.of_weights [| 1.; 3. |] in
  check_float "prob" 0.25 (Dist.prob d 0);
  check_int "size" 2 (Dist.size d);
  check_true "support" (Dist.support d = [ 0; 1 ]);
  let point = Dist.point 3 1 in
  check_true "point support" (Dist.support point = [ 1 ]);
  check_raises_invalid "negative" (fun () -> ignore (Dist.of_weights [| -1.; 2. |]))

let dist_tv_kl () =
  let p = Dist.of_weights [| 1.; 1. |] and q = Dist.of_weights [| 1.; 3. |] in
  check_float ~tol:1e-12 "tv" 0.25 (Dist.tv_distance p q);
  check_float ~tol:1e-12 "tv self" 0. (Dist.tv_distance p p);
  check_true "kl nonneg" (Dist.kl_divergence p q > 0.);
  check_float ~tol:1e-12 "kl self" 0. (Dist.kl_divergence q q);
  let point = Dist.point 2 0 in
  check_true "kl infinite" (Dist.kl_divergence q point = infinity)

let dist_entropy_expect () =
  let u = Dist.uniform 4 in
  check_float ~tol:1e-12 "entropy uniform" (log 4.) (Dist.entropy u);
  check_float ~tol:1e-12 "entropy point" 0. (Dist.entropy (Dist.point 4 2));
  check_float ~tol:1e-12 "expect" 1.5 (Dist.expect u float_of_int);
  check_float ~tol:1e-12 "mass" 0.5 (Dist.mass u (fun i -> i < 2))

let dist_evolve () =
  (* Deterministic cycle on 3 states. *)
  let step i = [ ((i + 1) mod 3, 1.) ] in
  let d = Dist.evolve (Dist.point 3 0) step in
  check_float "evolved" 1. (Dist.prob d 1)

let dist_mix_sample () =
  let p = Dist.point 2 0 and q = Dist.point 2 1 in
  let m = Dist.mix 0.3 p q in
  check_float ~tol:1e-12 "mix" 0.3 (Dist.prob m 0);
  let r = rng () in
  let counts = Array.make 2 0 in
  for _ = 1 to 20_000 do
    let k = Dist.sample r m in
    counts.(k) <- counts.(k) + 1
  done;
  check_float ~tol:0.02 "sample freq" 0.3 (float_of_int counts.(0) /. 20_000.)

let dist_log_weights () =
  let d = Dist.of_log_weights [| 0.; log 3. |] in
  check_float ~tol:1e-12 "log weights" 0.25 (Dist.prob d 0)

(* ----- Stats ----- *)

let stats_moments () =
  let xs = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
  check_float "mean" 5. (Stats.mean xs);
  check_float ~tol:1e-12 "variance" (32. /. 7.) (Stats.variance xs);
  check_float "single variance" 0. (Stats.variance [| 3. |]);
  check_raises_invalid "empty mean" (fun () -> ignore (Stats.mean [||]))

let stats_quantiles () =
  let xs = [| 1.; 2.; 3.; 4.; 5. |] in
  check_float "median" 3. (Stats.median xs);
  check_float "q0" 1. (Stats.quantile xs 0.);
  check_float "q1" 5. (Stats.quantile xs 1.);
  check_float "q interp" 1.5 (Stats.quantile xs 0.125);
  let lo, hi = Stats.min_max xs in
  check_float "min" 1. lo;
  check_float "max" 5. hi

let stats_fit () =
  let xs = [| 0.; 1.; 2.; 3. |] in
  let ys = [| 1.; 3.; 5.; 7. |] in
  let slope, intercept = Stats.linear_fit xs ys in
  check_float ~tol:1e-12 "slope" 2. slope;
  check_float ~tol:1e-12 "intercept" 1. intercept;
  check_float ~tol:1e-12 "corr" 1. (Stats.correlation xs ys);
  check_float ~tol:1e-12 "anticorr" (-1.)
    (Stats.correlation xs (Array.map (fun y -> -.y) ys));
  check_raises_invalid "degenerate" (fun () ->
      ignore (Stats.linear_fit [| 1.; 1. |] [| 1.; 2. |]))

let stats_ci () =
  let xs = Array.init 100 (fun i -> float_of_int (i mod 2)) in
  let m, half = Stats.mean_ci95 xs in
  check_float "ci mean" 0.5 m;
  check_true "ci positive" (half > 0. && half < 0.2)

(* ----- Empirical ----- *)

let empirical_basic () =
  let e = Empirical.create 3 in
  Empirical.add e 0;
  Empirical.add e 0;
  Empirical.add_many e 2 2;
  check_int "count" 2 (Empirical.count e 0);
  check_int "total" 4 (Empirical.total e);
  check_int "size" 3 (Empirical.size e);
  let d = Empirical.to_dist e in
  check_float "dist" 0.5 (Prob.Dist.prob d 0);
  check_float ~tol:1e-12 "tv against self" 0.
    (Empirical.tv_against e (Prob.Dist.of_weights [| 2.; 0.; 2. |]))

let empirical_of_samples () =
  let e = Empirical.of_samples 2 [ 0; 1; 1; 1 ] in
  check_float "from list" 0.75 (Prob.Dist.prob (Empirical.to_dist e) 1);
  check_raises_invalid "empty to_dist" (fun () ->
      ignore (Empirical.to_dist (Empirical.create 2)))

(* ----- Histogram ----- *)

let histogram_basic () =
  let h = Histogram.create ~lo:0. ~hi:10. ~bins:5 in
  List.iter (Histogram.add h) [ 0.5; 1.5; 2.5; 9.5; 11.0; -1.0 ];
  check_int "total" 6 (Histogram.total h);
  let counts = Histogram.counts h in
  check_int "bin0 (incl clamped -1)" 3 counts.(0);
  check_int "bin4 (incl clamped 11)" 2 counts.(4);
  let lo, hi = Histogram.bin_bounds h 1 in
  check_float "bin lo" 2. lo;
  check_float "bin hi" 4. hi;
  check_true "render non-empty" (String.length (Histogram.render h) > 0);
  check_raises_invalid "bad interval" (fun () ->
      ignore (Histogram.create ~lo:1. ~hi:1. ~bins:3))

(* ----- qcheck properties ----- *)

let tv_triangle =
  QCheck.Test.make ~name:"TV satisfies triangle inequality" ~count:100
    QCheck.(triple (list_of_size (Gen.return 4) pos_float)
              (list_of_size (Gen.return 4) pos_float)
              (list_of_size (Gen.return 4) pos_float))
    (fun (a, b, c) ->
      let valid l = List.exists (fun x -> x > 0.) l && List.for_all (fun x -> Float.is_finite x) l in
      QCheck.assume (valid a && valid b && valid c);
      let d l = Dist.of_weights (Array.of_list l) in
      let da = d a and db = d b and dc = d c in
      Dist.tv_distance da dc
      <= Dist.tv_distance da db +. Dist.tv_distance db dc +. 1e-12)

let logsumexp_monotone =
  QCheck.Test.make ~name:"logsumexp >= max element" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 8) (float_range (-50.) 50.))
    (fun l ->
      let a = Array.of_list l in
      Logspace.logsumexp a >= Array.fold_left Float.max neg_infinity a -. 1e-12)

let suites =
  [
    ( "prob.rng",
      [
        test "deterministic" rng_deterministic;
        test "copy & split" rng_copy_independent;
        test "float range" rng_float_range;
        test "int uniform" rng_int_uniform;
        test "bernoulli mean" rng_bernoulli_mean;
        test "categorical" rng_categorical;
        test "categorical boundaries" rng_categorical_boundaries;
        test "exponential mean" rng_exponential_mean;
        test "geometric mean" rng_geometric_mean;
        test "shuffle permutes" rng_shuffle_permutes;
      ] );
    ( "prob.logspace",
      [
        test "basics" logspace_basic;
        test "huge values" logspace_huge;
        test "logsumexp2 infinities" logsumexp2_infinities;
        test "log1mexp" logspace_log1mexp;
        qcheck logsumexp_monotone;
      ] );
    ( "prob.dist",
      [
        test "basics" dist_basic;
        test "tv & kl" dist_tv_kl;
        test "entropy & expect" dist_entropy_expect;
        test "evolve" dist_evolve;
        test "mix & sample" dist_mix_sample;
        test "log weights" dist_log_weights;
        qcheck tv_triangle;
      ] );
    ( "prob.stats",
      [
        test "moments" stats_moments;
        test "quantiles" stats_quantiles;
        test "linear fit" stats_fit;
        test "confidence interval" stats_ci;
      ] );
    ( "prob.empirical",
      [ test "basics" empirical_basic; test "of_samples" empirical_of_samples ] );
    ("prob.histogram", [ test "basics" histogram_basic ]);
  ]
