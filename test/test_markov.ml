open Helpers
open Markov

(* A two-state chain with transition probs p (0->1) and q (1->0):
   closed forms pi = (q, p)/(p+q), lambda_2 = 1 - p - q. *)
let two_state p q =
  Chain.of_rows [| [| (0, 1. -. p); (1, p) |]; [| (0, q); (1, 1. -. q) |] |]

let two_state_pi p q = [| q /. (p +. q); p /. (p +. q) |]

(* Random reversible chain built as a logit chain of a random potential
   game (the natural source of reversible chains in this library). *)
let random_reversible seed =
  let game, phi = random_potential_game ~players:3 ~strategies:2 seed in
  let beta = 1.0 in
  let chain = Logit.Logit_dynamics.chain game ~beta in
  let pi = Logit.Gibbs.stationary (Games.Game.space game) phi ~beta in
  (chain, pi)

(* ----- Chain ----- *)

let chain_validation () =
  check_raises_invalid "row sum" (fun () ->
      ignore (Chain.of_rows [| [| (0, 0.5) |] |]));
  check_raises_invalid "negative" (fun () ->
      ignore (Chain.of_rows [| [| (0, 1.5); (0, -0.5) |] |]));
  check_raises_invalid "out of range" (fun () ->
      ignore (Chain.of_rows [| [| (3, 1.0) |] |]));
  (* duplicates collapse *)
  let c = Chain.of_rows [| [| (0, 0.5); (0, 0.5) |] |] in
  check_float "dup sum" 1. (Chain.prob c 0 0)

let chain_evolve_apply () =
  let c = two_state 0.3 0.2 in
  let mu = Chain.evolve c [| 1.; 0. |] in
  check_array ~tol:1e-12 "evolve" [| 0.7; 0.3 |] mu;
  let f = Chain.apply c [| 0.; 1. |] in
  check_array ~tol:1e-12 "apply" [| 0.3; 0.8 |] f;
  let dense = Chain.to_dense c in
  check_float "dense" 0.3 (Linalg.Mat.get dense 0 1);
  let c2 = Chain.of_dense dense in
  check_float "roundtrip" 0.3 (Chain.prob c2 0 1)

let chain_structure () =
  let c = two_state 0.3 0.2 in
  check_true "irreducible" (Chain.is_irreducible c);
  check_true "aperiodic" (Chain.is_aperiodic c);
  (* A deterministic 2-cycle is periodic and irreducible. *)
  let cycle = Chain.of_rows [| [| (1, 1.) |]; [| (0, 1.) |] |] in
  check_true "cycle irreducible" (Chain.is_irreducible cycle);
  check_false "cycle periodic" (Chain.is_aperiodic cycle);
  let lazy_cycle = Chain.lazy_version cycle in
  check_true "lazy aperiodic" (Chain.is_aperiodic lazy_cycle);
  let absorbing = Chain.of_rows [| [| (0, 1.) |]; [| (0, 1.) |] |] in
  check_false "absorbing not irreducible" (Chain.is_irreducible absorbing)

let chain_reversibility () =
  let c = two_state 0.3 0.2 in
  check_true "2-state reversible" (Chain.is_reversible c (two_state_pi 0.3 0.2));
  (* 3-cycle with asymmetric rates is not reversible. *)
  let rot =
    Chain.of_rows
      [|
        [| (0, 0.1); (1, 0.9) |];
        [| (1, 0.1); (2, 0.9) |];
        [| (2, 0.1); (0, 0.9) |];
      |]
  in
  let pi = Stationary.by_solve rot in
  check_false "cycle not reversible" (Chain.is_reversible rot pi);
  let c2 = two_state 0.3 0.2 in
  let pi2 = two_state_pi 0.3 0.2 in
  check_float ~tol:1e-12 "edge measure" (pi2.(0) *. 0.3)
    (Chain.edge_measure c2 pi2 0 1)

let chain_simulate () =
  let c = two_state 0.5 0.5 in
  let r = rng () in
  let traj = Chain.simulate r c ~start:0 ~steps:100 in
  check_int "length" 101 (Array.length traj);
  check_int "start" 0 traj.(0);
  let hit = Chain.hitting_time r c ~start:0 ~target:(fun s -> s = 1) ~max_steps:1000 in
  check_true "hit eventually" (hit <> None);
  check_true "hit at 0"
    (Chain.hitting_time r c ~start:0 ~target:(fun s -> s = 0) ~max_steps:10 = Some 0)

let chain_sample_frequencies () =
  let c = two_state 0.3 0.2 in
  let r = rng () in
  let ones = ref 0 in
  let n = 50_000 in
  for _ = 1 to n do
    if Chain.sample_step r c 0 = 1 then incr ones
  done;
  check_float ~tol:0.01 "sample freq" 0.3 (float_of_int !ones /. float_of_int n)

(* ----- CSR layout invariants and kernels ----- *)

(* The pre-CSR reference kernels, reconstructed over the public row
   views: the tentpole contract is that the flat CSR kernels are
   bit-identical to these (same arithmetic, same order). *)
let legacy_evolve c mu =
  let n = Chain.size c in
  let out = Array.make n 0. in
  for i = 0 to n - 1 do
    let mass = mu.(i) in
    if mass > 0. then
      Array.iter (fun (j, p) -> out.(j) <- out.(j) +. (mass *. p)) (Chain.row c i)
  done;
  out

let legacy_sample_step rng c i =
  let entries = Chain.row c i in
  let u = Prob.Rng.float rng in
  let acc = ref 0. in
  let result = ref (fst entries.(Array.length entries - 1)) in
  let found = ref false in
  Array.iter
    (fun (j, p) ->
      if not !found then begin
        acc := !acc +. p;
        if u < !acc then begin
          result := j;
          found := true
        end
      end)
    entries;
  !result

let rows_strictly_sorted_positive c =
  let ok = ref true in
  for i = 0 to Chain.size c - 1 do
    let entries = Chain.row c i in
    check_int (Printf.sprintf "degree %d" i) (Array.length entries)
      (Chain.degree c i);
    Array.iteri
      (fun k (j, p) ->
        if p <= 0. then ok := false;
        if k > 0 && fst entries.(k - 1) >= j then ok := false)
      entries
  done;
  !ok

let csr_rows_sorted_dupfree () =
  (* Duplicate columns are summed into one strictly-sorted entry... *)
  let c =
    Chain.of_rows
      [|
        [| (1, 0.25); (0, 0.5); (1, 0.25) |];
        [| (1, 0.3); (0, 0.3); (1, 0.2); (0, 0.2) |];
      |]
  in
  check_true "duplicates collapsed, sorted" (rows_strictly_sorted_positive c);
  check_int "row 0 dup-free" 2 (Chain.degree c 0);
  check_float ~tol:1e-12 "summed dup" 0.5 (Chain.prob c 0 1);
  check_int "nnz" 4 (Chain.nnz c);
  (* ... and lazy_version (which re-introduces a duplicate self-loop
     entry per row) preserves the invariant. *)
  let lazy_c = Chain.lazy_version c in
  check_true "lazy_version sorted dup-free" (rows_strictly_sorted_positive lazy_c);
  check_float ~tol:1e-12 "lazy self-loop" (0.5 +. (0.5 *. 0.5)) (Chain.prob lazy_c 0 0)

let csr_rows_sorted_random =
  QCheck.Test.make ~name:"logit chain + lazy rows strictly sorted, no zeros"
    ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let chain, _ = random_reversible seed in
      rows_strictly_sorted_positive chain
      && rows_strictly_sorted_positive (Chain.lazy_version chain))

let csr_prob_binary_search =
  QCheck.Test.make ~name:"prob = linear row scan for every (i, j)" ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let chain, _ = random_reversible seed in
      let n = Chain.size chain in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let scanned = ref 0. in
          Array.iter
            (fun (k, p) -> if k = j then scanned := p)
            (Chain.row chain i);
          if Chain.prob chain i j <> !scanned then ok := false
        done
      done;
      !ok)

(* Every evolve is the one CSC gather, so this is the bit-identity
   contract of the whole kernel against the scatter it replaced: the
   stationary law and a random distribution, every point mass (single
   source per column contribution), and sparse unnormalised vectors,
   whose zeros the scatter skips and the gather adds as +0. summands. *)
let csr_evolve_bit_identical =
  QCheck.Test.make ~name:"CSR evolve bit-identical to pre-CSR row scan"
    ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let chain, pi = random_reversible seed in
      let n = Chain.size chain in
      let r = Prob.Rng.create (seed + 7) in
      let mu = Array.init n (fun _ -> Prob.Rng.float r) in
      let total = Array.fold_left ( +. ) 0. mu in
      let mu = Array.map (fun x -> x /. total) mu in
      let agree src = Chain.evolve chain src = legacy_evolve chain src in
      let point_masses =
        List.init n (fun i -> Array.init n (fun j -> if j = i then 1. else 0.))
      in
      let sparse = List.init 5 (fun _ -> random_sparse_vector r n) in
      List.for_all agree ((mu :: pi :: point_masses) @ sparse))

let csr_sampler_agreement =
  QCheck.Test.make
    ~name:"binary-search sampler = linear scan on identical RNG streams"
    ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let chain, _ = random_reversible seed in
      let a = Prob.Rng.create (seed + 13) in
      let b = Prob.Rng.copy a in
      let ok = ref true in
      let x = ref 0 and y = ref 0 in
      for _ = 1 to 2_000 do
        x := Chain.sample_step a chain !x;
        y := legacy_sample_step b chain !y;
        if !x <> !y then ok := false
      done;
      !ok)

let csr_sample_boundaries () =
  let c = two_state 0.3 0.2 in
  (* row 0 = [(0, 0.7); (1, 0.3)]: prefix sums 0.7, 1.0. *)
  check_int "u = 0 -> first entry" 0 (Chain.sample_step_of c 0 ~u:0.);
  check_int "u below first prefix" 0 (Chain.sample_step_of c 0 ~u:0.699);
  check_int "u at first prefix -> next entry" 1 (Chain.sample_step_of c 0 ~u:0.7);
  check_int "u just below mass" 1 (Chain.sample_step_of c 0 ~u:0.999999);
  (* u at/past the accumulated mass: fall back to the last stored
     entry, which is strictly positive by construction (zero-weight
     entries are dropped at normalisation, so no zero tail exists). *)
  check_int "u = 1 falls back to last entry" 1 (Chain.sample_step_of c 0 ~u:1.0);
  check_int "u past mass falls back" 1 (Chain.sample_step_of c 0 ~u:1.5);
  (* A row whose trailing probability is tiny still owns the tail. *)
  let skewed = Chain.of_rows [| [| (0, 1. -. 1e-12); (1, 1e-12) |]; [| (1, 1.) |] |] in
  check_int "tiny tail entry selected at u = 1" 1
    (Chain.sample_step_of skewed 0 ~u:1.0)

let csr_validation_negative_steps () =
  let c = two_state 0.3 0.2 in
  let r = rng () in
  check_raises_invalid "hitting_time negative max_steps" (fun () ->
      ignore
        (Chain.hitting_time r c ~start:0 ~target:(fun s -> s = 1) ~max_steps:(-1)));
  check_raises_invalid "tv_at negative steps" (fun () ->
      ignore (Mixing.tv_at c [| 0.5; 0.5 |] ~start:0 ~steps:(-1)));
  check_raises_invalid "simulate negative steps" (fun () ->
      ignore (Chain.simulate r c ~start:0 ~steps:(-1)));
  (* max_steps = 0 stays legal: a start on the target hits at time 0. *)
  check_true "hit at 0 with zero budget"
    (Chain.hitting_time r c ~start:0 ~target:(fun s -> s = 0) ~max_steps:0 = Some 0)

(* ----- CSC transpose and the panel evolve kernel ----- *)

(* The CSC invariant over the public [to_csc] view: offsets span the
   nnz, per-column source lists are strictly increasing, and every
   stored probability mirrors the CSR entry bit-for-bit. *)
let csc_invariants_hold c =
  let n = Chain.size c in
  let col_start, srcs, probs = Chain.to_csc c in
  let ok = ref true in
  if Array.length col_start <> n + 1 then ok := false;
  if col_start.(0) <> 0 || col_start.(n) <> Chain.nnz c then ok := false;
  if Array.length srcs <> Chain.nnz c then ok := false;
  if Array.length probs <> Chain.nnz c then ok := false;
  for j = 0 to n - 1 do
    if col_start.(j) > col_start.(j + 1) then ok := false;
    for k = col_start.(j) to col_start.(j + 1) - 1 do
      if k > col_start.(j) && srcs.(k - 1) >= srcs.(k) then ok := false;
      if probs.(k) <> Chain.prob c srcs.(k) j then ok := false
    done
  done;
  !ok

let csc_two_state () =
  let c = two_state 0.3 0.2 in
  let col_start, srcs, probs = Chain.to_csc c in
  (* Columns: j=0 receives from 0 (0.7) and 1 (0.2); j=1 from 0 (0.3)
     and 1 (0.8). *)
  check_true "offsets" (col_start = [| 0; 2; 4 |]);
  check_true "sources" (srcs = [| 0; 1; 0; 1 |]);
  check_true "probs" (probs = [| 0.7; 0.2; 0.3; 0.8 |]);
  check_true "invariants" (csc_invariants_hold c)

let csc_invariants_random =
  QCheck.Test.make ~name:"CSC: columns span nnz, sources strictly increasing"
    ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let chain, _ = random_reversible seed in
      csc_invariants_hold chain && csc_invariants_hold (Chain.lazy_version chain))

(* The CSC gather (pull) against the push scatter it replaced, kept
   here as [legacy_evolve], through both entry points: [Chain.evolve]
   and a 1-row panel of [evolve_many_into]. Inputs are the stationary
   law, every point mass (single-source column contributions), and
   sparse unnormalised vectors, whose zeros the scatter skipped and the
   gather adds as +0. summands. Two 9-row panels over the same inputs
   (two full 4-row tiles plus one leftover row each) pin the tile to
   the scatter as well. *)
let pull_matches_push =
  QCheck.Test.make
    ~name:"pull evolve bit-identical to push (incl. zero-mass sources)"
    ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let chain, pi = random_reversible seed in
      let n = Chain.size chain in
      let r = Prob.Rng.create (seed + 3) in
      let dst = panel_create n in
      let agree src =
        let push = legacy_evolve chain src in
        Chain.evolve_many_into chain ~k:1 ~src:(panel_of_rows [| src |]) ~dst;
        Chain.evolve chain src = push && panel_row dst ~n 0 = push
      in
      let point_masses =
        List.init n (fun i -> Array.init n (fun j -> if j = i then 1. else 0.))
      in
      let sparse = List.init 5 (fun _ -> random_sparse_vector r n) in
      let inputs = Array.of_list ((pi :: point_masses) @ sparse) in
      let k = 9 in
      let tiled p =
        let rows = Array.init k (fun i -> inputs.(((k * p) + i) mod Array.length inputs)) in
        let dst = panel_create (k * n) in
        Chain.evolve_many_into chain ~k ~src:(panel_of_rows rows) ~dst;
        Array.for_all Fun.id
          (Array.mapi (fun i row -> panel_row dst ~n i = legacy_evolve chain row) rows)
      in
      Array.for_all agree inputs && tiled 0 && tiled 1)

let spmm_matches_single_evolves =
  QCheck.Test.make
    ~name:"evolve_many_into rows bit-identical to k single evolves"
    ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let chain, pi = random_reversible seed in
      let n = Chain.size chain in
      let r = Prob.Rng.create (seed + 11) in
      let k = 1 + (seed mod 7) in
      let rows =
        Array.init k (fun i ->
            if i = 0 then Array.copy pi else random_sparse_vector r n)
      in
      let src = panel_of_rows rows in
      let dst = panel_create (k * n) in
      Chain.evolve_many_into chain ~k ~src ~dst;
      let ok = ref true in
      Array.iteri
        (fun i row -> if panel_row dst ~n i <> Chain.evolve chain row then ok := false)
        rows;
      !ok)

let spmm_validation () =
  let c = two_state 0.3 0.2 in
  let src = panel_of_rows [| [| 0.5; 0.5 |] |] in
  let dst = panel_create 2 in
  check_raises_invalid "negative k" (fun () ->
      Chain.evolve_many_into c ~k:(-1) ~src ~dst);
  check_raises_invalid "src dimension" (fun () ->
      Chain.evolve_many_into c ~k:2 ~src ~dst:(panel_create 4));
  check_raises_invalid "dst dimension" (fun () ->
      Chain.evolve_many_into c ~k:2 ~src:(panel_create 4) ~dst);
  check_raises_invalid "src = dst" (fun () ->
      Chain.evolve_many_into c ~k:1 ~src ~dst:src);
  (* k = 0 stays legal: an empty panel is a no-op. *)
  Chain.evolve_many_into c ~k:0 ~src:(panel_create 0) ~dst:(panel_create 0);
  (* And the single-row panel overwrites whatever dst held. *)
  Bigarray.Array1.fill dst nan;
  Chain.evolve_many_into c ~k:1 ~src ~dst;
  check_true "k = 1 row" (panel_row dst ~n:2 0 = legacy_evolve c [| 0.5; 0.5 |]);
  check_raises_invalid "evolve dimension" (fun () ->
      ignore (Chain.evolve c [| 1. |]))

(* ----- Stationary ----- *)

let stationary_two_state () =
  let c = two_state 0.3 0.2 in
  let expected = two_state_pi 0.3 0.2 in
  check_array ~tol:1e-10 "power" expected (Stationary.by_power c);
  check_array ~tol:1e-10 "solve" expected (Stationary.by_solve c);
  check_true "is stationary" (Stationary.is_stationary c expected);
  check_false "uniform is not" (Stationary.is_stationary c [| 0.5; 0.5 |])

let stationary_solve_matches_power =
  QCheck.Test.make ~name:"by_solve = by_power on random reversible chains"
    ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let chain, _ = random_reversible seed in
      let a = Stationary.by_solve chain in
      let b = Stationary.by_power chain in
      Array.for_all2 (fun x y -> Float.abs (x -. y) < 1e-8) a b)

let stationary_gibbs_is_stationary =
  QCheck.Test.make ~name:"Gibbs measure is stationary for logit chains" ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let chain, pi = random_reversible seed in
      Stationary.residual chain pi < 1e-10)

(* ----- Mixing ----- *)

let mixing_two_state_exact () =
  (* d(t) = (1-p-q)^t * max(pi0, pi1); with p=q=0.25, lambda=0.5,
     d(t) = 0.5^(t+1). t_mix = min t with 0.5^(t+1) <= 1/4 -> t = 1. *)
  let c = two_state 0.25 0.25 in
  let pi = [| 0.5; 0.5 |] in
  check_true "tmix" (Mixing.mixing_time_all c pi = Some 1);
  let curve = Mixing.tv_curve c pi ~starts:[ 0; 1 ] ~steps:4 in
  check_array ~tol:1e-12 "curve" [| 0.5; 0.25; 0.125; 0.0625; 0.03125 |] curve;
  check_float ~tol:1e-12 "tv_at" 0.125 (Mixing.tv_at c pi ~start:0 ~steps:2)

let mixing_monotone =
  QCheck.Test.make ~name:"d(t) is non-increasing" ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let chain, pi = random_reversible seed in
      let starts = List.init (Chain.size chain) Fun.id in
      let curve = Mixing.tv_curve chain pi ~starts ~steps:30 in
      let ok = ref true in
      for t = 1 to 30 do
        if curve.(t) > curve.(t - 1) +. 1e-12 then ok := false
      done;
      !ok)

let mixing_spectral_matches_evolution =
  QCheck.Test.make ~name:"spectral t_mix = evolution t_mix" ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let chain, pi = random_reversible seed in
      let starts = List.init (Chain.size chain) Fun.id in
      Mixing.mixing_time chain pi ~starts
      = Mixing.mixing_time_spectral chain pi ~starts)

let mixing_empirical_close () =
  let c = two_state 0.3 0.2 in
  let pi = two_state_pi 0.3 0.2 in
  let r = rng () in
  let tv = Mixing.empirical_tv r c pi ~start:0 ~steps:100 ~replicas:20_000 in
  check_true "small empirical tv" (tv < 0.02)

let mixing_empirical_validation () =
  let c = two_state 0.3 0.2 in
  let pi = two_state_pi 0.3 0.2 in
  let r = rng () in
  check_raises_invalid "negative steps" (fun () ->
      ignore (Mixing.empirical_tv r c pi ~start:0 ~steps:(-1) ~replicas:10));
  check_raises_invalid "start out of range" (fun () ->
      ignore (Mixing.empirical_tv r c pi ~start:2 ~steps:5 ~replicas:10));
  check_raises_invalid "negative start" (fun () ->
      ignore (Mixing.empirical_tv r c pi ~start:(-1) ~steps:5 ~replicas:10));
  check_raises_invalid "no replicas" (fun () ->
      ignore (Mixing.empirical_tv r c pi ~start:0 ~steps:5 ~replicas:0));
  (* steps = 0 stays legal: the empirical law of the start itself. *)
  check_true "zero steps legal"
    (Mixing.empirical_tv r c pi ~start:0 ~steps:0 ~replicas:10 >= 0.)

let mixing_spectral_bounds () =
  check_float ~tol:1e-12 "upper" (2. *. log 8.)
    (Mixing.upper_mixing_time_spectral ~gap:0.5 ~pi_min:0.5 ~eps:0.25);
  check_float ~tol:1e-12 "lower" (1. *. log 2.)
    (Mixing.lower_mixing_time_spectral ~gap:0.5 ~eps:0.25)

(* ----- Spectral ----- *)

let spectral_two_state () =
  let c = two_state 0.3 0.2 in
  let pi = two_state_pi 0.3 0.2 in
  let values = Spectral.spectrum c pi in
  check_array ~tol:1e-10 "spectrum" [| 1.; 0.5 |] values;
  check_float ~tol:1e-9 "lambda2 power" 0.5 (Spectral.lambda2 c pi);
  check_float ~tol:1e-9 "relaxation" 2. (Spectral.relaxation_time c pi);
  check_float ~tol:1e-9 "gap" 0.5 (Spectral.spectral_gap c pi);
  check_float ~tol:1e-9 "min eigenvalue" 0.5 (Spectral.min_eigenvalue c pi)

let spectral_rejects_nonreversible () =
  let rot =
    Chain.of_rows
      [|
        [| (0, 0.1); (1, 0.9) |];
        [| (1, 0.1); (2, 0.9) |];
        [| (2, 0.1); (0, 0.9) |];
      |]
  in
  let pi = Stationary.by_solve rot in
  check_raises_invalid "symmetrize non-reversible" (fun () ->
      ignore (Spectral.symmetrize rot pi))

let spectral_lambda2_matches_jacobi =
  QCheck.Test.make ~name:"power-iteration lambda2 = jacobi lambda2" ~count:15
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let chain, pi = random_reversible seed in
      let full = Spectral.spectrum chain pi in
      let star = Float.max full.(1) (Float.abs full.(Array.length full - 1)) in
      Float.abs (Spectral.lambda2 chain pi -. star) < 1e-6)

let spectral_relaxation_brackets_tmix =
  QCheck.Test.make ~name:"Thm 2.3: t_rel brackets t_mix" ~count:15
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let chain, pi = random_reversible seed in
      let trel = Spectral.relaxation_time chain pi in
      let pi_min = Array.fold_left Float.min infinity pi in
      match Mixing.mixing_time_all chain pi with
      | None -> false
      | Some t ->
          let t = float_of_int t in
          let upper = Mixing.upper_mixing_time_spectral ~gap:(1. /. trel) ~pi_min ~eps:0.25 in
          let lower = Mixing.lower_mixing_time_spectral ~gap:(1. /. trel) ~eps:0.25 in
          (* mixing_time is the first integer under 1/4, so allow one step slack *)
          t >= lower -. 1. && t <= upper +. 1.)

(* ----- Bottleneck ----- *)

let bottleneck_two_state () =
  let c = two_state 0.3 0.2 in
  let pi = two_state_pi 0.3 0.2 in
  (* R = {0}: Q(0,1) = pi0 * 0.3, B = 0.3. *)
  check_float ~tol:1e-12 "ratio" 0.3 (Bottleneck.ratio c pi (fun i -> i = 0));
  check_float ~tol:1e-12 "lower bound" (0.5 /. (2. *. 0.3))
    (Bottleneck.lower_bound_tmix 0.3);
  check_raises_invalid "empty set" (fun () ->
      ignore (Bottleneck.ratio c pi (fun _ -> false)));
  check_raises_invalid "too heavy" (fun () ->
      ignore (Bottleneck.ratio_checked c pi (fun _ -> true)))

let bottleneck_lower_bound_valid =
  QCheck.Test.make ~name:"Thm 2.7: bottleneck bound <= t_mix" ~count:15
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let chain, pi = random_reversible seed in
      match Mixing.mixing_time_all chain pi with
      | None -> false
      | Some tmix ->
          (* Try all sublevel sets of the stationary probability as scores. *)
          let b, _ = Bottleneck.best_sublevel_set chain pi (fun i -> pi.(i)) in
          Bottleneck.lower_bound_tmix b <= float_of_int tmix +. 1.)

let bottleneck_rejects_heavy_proper_subset () =
  (* pi = (0.4, 0.6): the singleton {1} is a proper subset but carries
     more than half the stationary mass, so ratio_checked must refuse
     it while the unchecked ratio still evaluates. *)
  let c = two_state 0.3 0.2 in
  let pi = two_state_pi 0.3 0.2 in
  check_raises_invalid "pi(R) > 1/2" (fun () ->
      ignore (Bottleneck.ratio_checked c pi (fun i -> i = 1)));
  check_float ~tol:1e-12 "light complement accepted"
    (Bottleneck.ratio c pi (fun i -> i = 0))
    (Bottleneck.ratio_checked c pi (fun i -> i = 0))

let bottleneck_two_well_barrier () =
  (* Metropolis birth-death chain for weights (10, 1, 0.1, 0.1, 1, 10):
     two deep wells at the ends separated by a flat barrier. The best
     sublevel cut of the identity score is theta = 2 — the left half
     {0,1,2} with mass exactly 1/2, which beats theta = 1's lighter set
     at equal edge flow (and theta = 3 is rejected as too heavy). *)
  let w = [| 10.; 1.; 0.1; 0.1; 1.; 10. |] in
  let n = Array.length w in
  let rows =
    Array.init n (fun i ->
        let up =
          if i < n - 1 then 0.5 *. Float.min 1. (w.(i + 1) /. w.(i)) else 0.
        in
        let down = if i > 0 then 0.5 *. Float.min 1. (w.(i - 1) /. w.(i)) else 0. in
        let entries = ref [ (i, 1. -. up -. down) ] in
        if up > 0. then entries := (i + 1, up) :: !entries;
        if down > 0. then entries := (i - 1, down) :: !entries;
        Array.of_list !entries)
  in
  let chain = Chain.of_rows rows in
  let total = Array.fold_left ( +. ) 0. w in
  let pi = Array.map (fun x -> x /. total) w in
  check_true "metropolis chain is reversible" (Chain.is_reversible chain pi);
  let b, theta = Bottleneck.best_sublevel_set chain pi float_of_int in
  check_float ~tol:1e-12 "cut sits at the barrier top" 2. theta;
  check_float ~tol:1e-12 "best ratio = ratio of {0,1,2}"
    (Bottleneck.ratio chain pi (fun i -> i <= 2))
    b;
  (* The barrier cut is strictly tighter than slicing inside a well. *)
  check_true "barrier beats the well-interior cut"
    (b < Bottleneck.ratio chain pi (fun i -> i = 0))

(* ----- Absorbing: closed transient class ----- *)

let absorbing_rejects_closed_transient_class () =
  (* States 0 and 1 swap forever and never reach the absorbing state 2;
     state 3 is honestly transient. analyse must refuse the chain
     instead of producing a singular fundamental matrix. *)
  let chain =
    Chain.of_rows
      [|
        [| (1, 1.) |];
        [| (0, 1.) |];
        [| (2, 1.) |];
        [| (0, 0.5); (2, 0.5) |];
      |]
  in
  check_raises_invalid "closed transient class" (fun () ->
      ignore (Absorbing.analyse chain));
  (* The same topology with an escape hatch out of {0,1} is accepted. *)
  let ok =
    Chain.of_rows
      [|
        [| (1, 1.) |];
        [| (0, 0.5); (2, 0.5) |];
        [| (2, 1.) |];
        [| (0, 0.5); (2, 0.5) |];
      |]
  in
  let a = Absorbing.analyse ok in
  check_float ~tol:1e-9 "absorbs almost surely" 1.
    (Absorbing.absorption_probability a ~start:0 ~target:2)

(* ----- Coupling ----- *)

let coupling_independent_coalesces () =
  let c = two_state 0.5 0.5 in
  let step = Coupling.independent_coupling c in
  let r = rng () in
  (match Coupling.coalescence_time r step ~x0:0 ~y0:1 ~max_steps:10_000 with
  | Some t -> check_true "coalesced" (t > 0)
  | None -> Alcotest.fail "should coalesce");
  check_int "already together"
    0
    (Option.get (Coupling.coalescence_time r step ~x0:1 ~y0:1 ~max_steps:10))

let coupling_stays_together () =
  let c = two_state 0.3 0.2 in
  let step = Coupling.independent_coupling c in
  let r = rng () in
  check_int "no violations" 0
    (Coupling.grand_coupling_check r step ~size:2 ~trials:200 ~horizon:50)

let coupling_estimate_bounds_tmix () =
  (* For the lazy random walk on 2 states the coupling bound must be a
     valid upper bound on the mixing time. *)
  let c = two_state 0.25 0.25 in
  let pi = [| 0.5; 0.5 |] in
  let step = Coupling.independent_coupling c in
  let r = rng () in
  match
    ( Mixing.mixing_time_all c pi,
      Coupling.tmix_upper_estimate r step ~x0:0 ~y0:1 ~max_steps:10_000
        ~replicas:2_000 )
  with
  | Some t, Some est -> check_true "estimate >= tmix" (est >= t)
  | _ -> Alcotest.fail "both should exist"

let coupling_censoring () =
  (* A coupling that never coalesces from distinct states. *)
  let stuck _rng (x, y) = (x, y) in
  let r = rng () in
  check_true "censored -> None"
    (Coupling.tmix_upper_estimate r stuck ~x0:0 ~y0:1 ~max_steps:100 ~replicas:50
    = None)

(* ----- Birth_death ----- *)

let bd_validation () =
  check_raises_invalid "up at n" (fun () ->
      ignore (Birth_death.create ~up:[| 0.5; 0.5 |] ~down:[| 0.; 0.5 |]));
  check_raises_invalid "down at 0" (fun () ->
      ignore (Birth_death.create ~up:[| 0.5; 0. |] ~down:[| 0.5; 0.5 |]));
  check_raises_invalid "sum > 1" (fun () ->
      ignore (Birth_death.create ~up:[| 0.7; 0.7; 0. |] ~down:[| 0.; 0.7; 0.7 |]))

let bd_stationary_closed_form () =
  (* Symmetric walk: up = down = 1/4 inside; pi should be uniform-ish
     with halved mass at the endpoints... compute directly instead:
     detailed balance pi(k+1)/pi(k) = up(k)/down(k+1). *)
  let up = [| 0.25; 0.25; 0.25; 0. |] in
  let down = [| 0.; 0.25; 0.25; 0.25 |] in
  let bd = Birth_death.create ~up ~down in
  let pi = Birth_death.stationary bd in
  check_array ~tol:1e-12 "uniform" (Array.make 4 0.25) pi;
  (* Asymmetric: up twice the down -> pi(k) proportional to 2^k. *)
  let up2 = [| 0.5; 0.5; 0. |] and down2 = [| 0.; 0.25; 0.25 |] in
  let bd2 = Birth_death.create ~up:up2 ~down:down2 in
  let pi2 = Birth_death.stationary bd2 in
  check_array ~tol:1e-12 "geometric" [| 1. /. 7.; 2. /. 7.; 4. /. 7. |] pi2

let bd_chain_consistent () =
  let bd = Birth_death.create ~up:[| 0.3; 0.2; 0. |] ~down:[| 0.; 0.1; 0.4 |] in
  let chain = Birth_death.to_chain bd in
  check_float "up" 0.3 (Chain.prob chain 0 1);
  check_float "stay" 0.7 (Chain.prob chain 0 0);
  check_float "down" 0.4 (Chain.prob chain 2 1);
  let pi = Birth_death.stationary bd in
  check_true "stationary on chain" (Stationary.is_stationary chain pi);
  check_true "reversible" (Chain.is_reversible chain pi)

let bd_mixing_consistent () =
  let bd = Birth_death.create ~up:[| 0.25; 0.25; 0. |] ~down:[| 0.; 0.25; 0.25 |] in
  check_true "evolution = spectral"
    (Birth_death.mixing_time bd = Birth_death.mixing_time_spectral bd);
  let spectrum = Birth_death.spectrum bd in
  check_float ~tol:1e-10 "top eigenvalue" 1. spectrum.(0);
  check_true "relaxation positive" (Birth_death.relaxation_time bd > 0.)

let mixing_squaring_matches_evolution =
  QCheck.Test.make ~name:"squaring t_mix = evolution t_mix" ~count:15
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let chain, pi = random_reversible seed in
      let starts = List.init (Chain.size chain) Fun.id in
      Mixing.mixing_time chain pi ~starts
      = Mixing.mixing_time_squaring chain pi ~starts)

let mixing_squaring_extreme_beta () =
  (* The regime that defeats the eigendecomposition: pi_min ~ 1e-80. *)
  let bd = Logit.Lumping.clique ~n:128 ~delta0:1.0 ~delta1:1.0 ~beta:0.003 in
  let chain = Birth_death.to_chain bd in
  let pi = Birth_death.stationary bd in
  check_true "pi_min underflows the spectral route"
    (Array.fold_left Float.min infinity pi < 1e-25);
  let starts = List.init 129 Fun.id in
  match
    ( Mixing.mixing_time_squaring chain pi ~starts,
      Mixing.mixing_time ~max_steps:100_000 chain pi ~starts )
  with
  | Some a, Some b ->
      (* Squaring renormalisation can move the crossing by a step. *)
      check_true "agree within 1 step" (abs (a - b) <= 1)
  | _ -> Alcotest.fail "both methods should terminate"

(* The three exact routes to t_mix are oracles for one another, and
   they must agree on the budget too: [None] exactly when
   t_mix > max_steps — at a zero budget, just below and above t_mix,
   and at the last budget before the next power of two (where repeated
   squaring used to stop one power early) — and a negative budget is
   rejected by all three. *)
let mixing_routes_agree_on_budgets () =
  let ring4 =
    let desc =
      Games.Graphical.create (Graphs.Generators.ring 4)
        (Games.Coordination.of_deltas ~delta0:1.0 ~delta1:1.0)
    in
    let game = Games.Graphical.to_game desc in
    ( Logit.Logit_dynamics.chain game ~beta:1.0,
      Logit.Gibbs.stationary (Games.Game.space game)
        (Games.Graphical.potential desc) ~beta:1.0 )
  in
  let cases =
    (two_state 0.3 0.4, two_state_pi 0.3 0.4)
    :: ring4
    :: List.map random_reversible [ 1; 2; 3; 4; 5; 6 ]
  in
  List.iteri
    (fun c (chain, pi) ->
      let starts = List.init (Chain.size chain) Fun.id in
      let routes =
        [
          ("panel", fun max_steps -> Mixing.mixing_time ~max_steps chain pi ~starts);
          ( "spectral",
            fun max_steps -> Mixing.mixing_time_spectral ~max_steps chain pi ~starts );
          ( "squaring",
            fun max_steps -> Mixing.mixing_time_squaring ~max_steps chain pi ~starts );
        ]
      in
      let t =
        match Mixing.mixing_time chain pi ~starts with
        | Some t -> t
        | None -> Alcotest.failf "case %d: no t_mix" c
      in
      let rec pow2 p = if p >= t then p else pow2 (2 * p) in
      let budgets =
        List.filter (fun b -> b >= 0) [ 0; 1; t - 1; t; t + 1; pow2 1 - 1 ]
      in
      List.iter
        (fun max_steps ->
          let expected = if t <= max_steps then Some t else None in
          List.iter
            (fun (route, run) ->
              check_true
                (Printf.sprintf "case %d (t_mix %d), max_steps %d: %s" c t max_steps
                   route)
                (run max_steps = expected))
            routes)
        budgets;
      List.iter
        (fun (route, run) ->
          check_raises_invalid
            (Printf.sprintf "case %d: %s rejects max_steps -1" c route)
            (fun () -> ignore (run (-1))))
        routes)
    cases

(* The spectral d(t) search as it stood before the early-exit probe:
   every probe folds the full TV of every start with Float.max,
   recomputing λᵗ and √π per start. The library's search must return
   exactly what this one does. *)
let reference_eigen_pow lambda t =
  if t = 0 then 1.
  (* lint: allow float-equality — exact zero short-circuits before log *)
  else if lambda = 0. then 0.
  else begin
    let magnitude = exp (float_of_int t *. log (Float.abs lambda)) in
    if lambda < 0. && t land 1 = 1 then -.magnitude else magnitude
  end

let reference_tv_at_spectral ~decomposition:(values, u) pi ~start ~steps =
  let n = Array.length pi in
  if start < 0 || start >= n then invalid_arg "reference: bad start";
  let powers = Array.map (fun lambda -> reference_eigen_pow lambda steps) values in
  let sqrt_pi = Array.map sqrt pi in
  let acc = ref 0. in
  for y = 0 to n - 1 do
    let p = ref 0. in
    for k = 0 to Array.length values - 1 do
      (* lint: allow float-equality — exact-zero skip of underflowed spectral terms *)
      if powers.(k) <> 0. then
        p := !p +. (powers.(k) *. Linalg.Mat.get u start k *. Linalg.Mat.get u y k)
    done;
    let pt = !p *. sqrt_pi.(y) /. sqrt_pi.(start) in
    acc := !acc +. Float.abs (pt -. pi.(y))
  done;
  0.5 *. !acc

(* d(t) over [starts], memoised: it does not depend on eps or on the
   budget, so one table serves every search over one decomposition. *)
let reference_d ~decomposition pi ~starts =
  let memo = Hashtbl.create 64 in
  fun steps ->
    match Hashtbl.find_opt memo steps with
    | Some d -> d
    | None ->
        let d =
          List.fold_left
            (fun acc start ->
              Float.max acc (reference_tv_at_spectral ~decomposition pi ~start ~steps))
            0. starts
        in
        Hashtbl.replace memo steps d;
        d

let reference_spectral_search ?(eps = 0.25) ?(max_steps = max_int / 4) d =
  if d 0 <= eps then Some 0
  else if max_steps = 0 then None
  else begin
    let rec bracket hi =
      if d hi <= eps then Some hi
      else if hi >= max_steps then None
      else bracket (Int.min max_steps (2 * hi))
    in
    match bracket 1 with
    | None -> None
    | Some hi ->
        let rec search lo hi =
          if hi - lo <= 1 then hi
          else
            let mid = lo + ((hi - lo) / 2) in
            if d mid <= eps then search lo mid else search mid hi
        in
        Some (search (hi / 2) hi)
  end

(* The early-exit search = the reference on every eps and on the step
   budgets around each answer, for dense decompositions of the catalog
   games and for the tridiagonal decomposition of a lumped chain; the
   answer also ignores the order of the starts. *)
let mixing_spectral_search_matches_reference () =
  let dense =
    List.concat_map
      (fun (game, n) ->
        List.map
          (fun beta ->
            let chain, pi = catalog_chain game ~n ~beta in
            (Printf.sprintf "%s n=%d beta=%g" game n beta, Mixing.decompose chain pi, pi))
          [ 0.5; 2. ])
      [ ("ring", 5); ("ring", 6); ("clique", 5); ("curve", 5) ]
  in
  let lumped =
    let bd = Logit.Lumping.clique ~n:12 ~delta0:1.0 ~delta1:1.0 ~beta:0.3 in
    ("lumped clique n=12", Birth_death.decomposition bd, Birth_death.stationary bd)
  in
  List.iter
    (fun (name, decomposition, pi) ->
      let starts = List.init (Array.length pi) Fun.id in
      let d = reference_d ~decomposition pi ~starts in
      List.iter
        (fun eps ->
          let t =
            match reference_spectral_search ~eps d with
            | Some t -> t
            | None -> Alcotest.failf "%s eps=%g: reference found no t_mix" name eps
          in
          List.iter
            (fun max_steps ->
              let expected = reference_spectral_search ~eps ~max_steps d in
              let label =
                Printf.sprintf "%s eps=%g (t_mix %d) max_steps=%d" name eps t max_steps
              in
              check_true label
                (Mixing.mixing_time_from_decomposition ~eps ~max_steps ~decomposition pi
                   ~starts
                = expected);
              check_true (label ^ ", starts reversed")
                (Mixing.mixing_time_from_decomposition ~eps ~max_steps ~decomposition pi
                   ~starts:(List.rev starts)
                = expected))
            (List.filter (fun b -> b >= 0) [ 0; 1; t - 1; t; t + 1 ]))
        [ 0.01; 0.05; 0.1; 0.25; 0.45 ])
    (lumped :: dense)

(* Every start is validated before the first probe: a bad start is
   rejected even when the start before it already fails d(0) <= eps,
   where an early exit would never reach it — at a zero budget the
   search ends on that first failed probe. *)
let mixing_spectral_validates_starts () =
  let chain, pi = catalog_chain "ring" ~n:4 ~beta:1. in
  let decomposition = Mixing.decompose chain pi in
  let n = Array.length pi in
  check_true "start 0 alone fails the first probe"
    (reference_tv_at_spectral ~decomposition pi ~start:0 ~steps:0 > 0.25);
  List.iter
    (fun starts ->
      List.iter
        (fun max_steps ->
          check_raises_invalid
            (Printf.sprintf "starts [%s], max_steps %d"
               (String.concat "; " (List.map string_of_int starts))
               max_steps)
            (fun () ->
              Mixing.mixing_time_from_decomposition ~max_steps ~decomposition pi ~starts))
        [ 0; 1_000 ])
    [ [ 0; n ]; [ 0; -1 ]; [ 0; 1; n + 5 ]; [] ];
  check_raises_invalid "decomposition of another size" (fun () ->
      Mixing.mixing_time_from_decomposition
        ~decomposition:(Mixing.decompose (two_state 0.3 0.2) (two_state_pi 0.3 0.2))
        pi ~starts:[ 0 ])

(* The t_mix the end-to-end benchmark's goldens hold for
   `logitdyn mixing ring -n 7`, the CLI's spectral route. *)
let mixing_spectral_ring7_goldens () =
  List.iter
    (fun (beta, expected) ->
      let chain, pi = catalog_chain "ring" ~n:7 ~beta in
      check_true
        (Printf.sprintf "ring n=7 beta=%g: t_mix %d" beta expected)
        (Mixing.mixing_time_spectral chain pi ~starts:(List.init (Chain.size chain) Fun.id)
        = Some expected))
    [ (0.5, 16); (1., 30); (1.5, 63); (2., 148) ]

let mixing_squaring_size_guard () =
  check_raises_invalid "size guard" (fun () ->
      let rows = Array.make 800 [| (0, 1.) |] in
      let rows = Array.mapi (fun i _ -> [| (i, 1.) |]) rows in
      ignore
        (Mixing.mixing_time_squaring (Chain.of_rows rows)
           (Array.make 800 (1. /. 800.))
           ~starts:[ 0 ]))

(* ----- β-families: one shared structure, per-β probability planes ----- *)

(* The bit-identity contract: every family plane must reproduce an
   independent [chain ~beta] build exactly — same sparsity, same float
   bits — across the β grid, game zoo, and both panel kernels. *)

let family_grid = [ 0.0; 0.25; 1.0; 2.5 ]

let family_rows_equal a b =
  Chain.size a = Chain.size b
  && begin
       let ok = ref true in
       for i = 0 to Chain.size a - 1 do
         if Chain.row a i <> Chain.row b i then ok := false
       done;
       !ok
     end

let family_matches_solo game betas =
  let fam = Logit.Logit_dynamics.chain_family game ~betas in
  List.for_all
    (fun (i, beta) ->
      family_rows_equal (Family.plane fam i)
        (Logit.Logit_dynamics.chain game ~beta))
    (List.mapi (fun i b -> (i, b)) betas)

let family_planes_bit_identical =
  QCheck.Test.make ~name:"family planes = independent chain builds" ~count:25
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let game, _ = random_potential_game ~players:3 ~strategies:2 seed in
      family_matches_solo game family_grid)

let family_game_zoo () =
  let zoo =
    [
      ("pure coordination", Games.Zoo.pure_coordination ~players:3 ~strategies:2);
      ( "2x2 coordination",
        Games.Coordination.to_game
          (Games.Coordination.of_deltas ~delta0:1.0 ~delta1:0.5) );
      ( "ring graphical",
        Games.Graphical.to_game
          (Games.Graphical.create
             (Graphs.Generators.ring 4)
             (Games.Coordination.of_deltas ~delta0:1.0 ~delta1:1.0)) );
    ]
  in
  List.iter
    (fun (name, game) ->
      check_true (name ^ ": planes match solo builds")
        (family_matches_solo game family_grid);
      let fam = Logit.Logit_dynamics.chain_family game ~betas:family_grid in
      (* Logit rows keep every neighbour's softmax mass strictly
         positive at these β, so the sparsity — hence the index
         structure — is β-independent. *)
      check_true (name ^ ": shared structure") (Family.shared_structure fam))
    zoo

let family_accessors () =
  let game, _ = random_potential_game 11 in
  let fam = Logit.Logit_dynamics.chain_family game ~betas:family_grid in
  check_int "num_planes" (List.length family_grid) (Family.num_planes fam);
  check_int "size" (Games.Strategy_space.size (Games.Game.space game))
    (Family.size fam);
  List.iteri
    (fun i b -> check_float (Printf.sprintf "beta %d" i) b (Family.beta fam i))
    family_grid;
  check_array "betas copy" (Array.of_list family_grid) (Family.betas fam);
  (Family.betas fam).(0) <- 99.;
  check_float "betas returns a copy" 0.0 (Family.beta fam 0);
  check_true "find hit" (Family.find fam ~beta:0.25 = Some 1);
  check_true "find miss" (Family.find fam ~beta:0.26 = None);
  check_raises_invalid "plane out of range" (fun () ->
      ignore (Family.plane fam (List.length family_grid)));
  check_raises_invalid "beta out of range" (fun () ->
      ignore (Family.beta fam (-1)))

let family_validation () =
  let game, _ = random_potential_game 11 in
  check_raises_invalid "empty grid" (fun () ->
      ignore (Logit.Logit_dynamics.chain_family game ~betas:[]));
  check_raises_invalid "negative beta" (fun () ->
      ignore (Logit.Logit_dynamics.chain_family game ~betas:[ 1.0; -0.5 ]));
  let c = two_state 0.3 0.2 in
  check_raises_invalid "Family.v empty" (fun () ->
      ignore (Family.v ~betas:[||] ~planes:[||]));
  check_raises_invalid "Family.v length mismatch" (fun () ->
      ignore (Family.v ~betas:[| 1.0 |] ~planes:[| c; c |]));
  check_raises_invalid "Family.v size mismatch" (fun () ->
      ignore
        (Family.v ~betas:[| 1.0; 2.0 |]
           ~planes:[| c; Chain.of_rows [| [| (0, 1.) |] |] |]))

(* The fused multi-plane SpMM must agree bit-for-bit with running
   [evolve_many_into] on each plane alone — shared src panels, distinct
   dst panels, compared by float bits. *)
let family_fused_spmm_matches_per_plane =
  QCheck.Test.make ~name:"fused family SpMM = per-plane evolve_many_into"
    ~count:20
    QCheck.(pair (int_bound 1_000_000) (int_range 1 5))
    (fun (seed, k) ->
      let game, _ = random_potential_game ~players:3 ~strategies:2 seed in
      let fam = Logit.Logit_dynamics.chain_family game ~betas:family_grid in
      let np = Family.num_planes fam in
      let n = Family.size fam in
      let r = rng ~seed () in
      let src =
        Array.init np (fun _ ->
            panel_of_rows (Array.init k (fun _ -> random_sparse_vector r n)))
      in
      let dst_fused = Array.init np (fun _ -> panel_create (k * n)) in
      let dst_solo = Array.init np (fun _ -> panel_create (k * n)) in
      Family.evolve_many_into fam ~k ~src ~dst:dst_fused;
      Array.iteri
        (fun p c -> Chain.evolve_many_into c ~k ~src:src.(p) ~dst:dst_solo.(p))
        (Array.init np (Family.plane fam));
      let ok = ref true in
      for p = 0 to np - 1 do
        for row = 0 to k - 1 do
          let a = panel_row dst_fused.(p) ~n row
          and b = panel_row dst_solo.(p) ~n row in
          Array.iteri
            (fun i x ->
              if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then
                ok := false)
            a
        done
      done;
      !ok)

let family_spmm_validation () =
  let game, _ = random_potential_game 11 in
  let fam = Logit.Logit_dynamics.chain_family game ~betas:family_grid in
  let np = Family.num_planes fam in
  let n = Family.size fam in
  let k = 2 in
  let mk () = Array.init np (fun _ -> panel_create (k * n)) in
  let src = mk () in
  check_raises_invalid "panel count mismatch" (fun () ->
      Family.evolve_many_into fam ~k ~src:[| src.(0) |] ~dst:(mk ()));
  check_raises_invalid "dst aliases src" (fun () ->
      Family.evolve_many_into fam ~k ~src ~dst:src);
  check_raises_invalid "bad panel dims" (fun () ->
      Family.evolve_many_into fam ~k:(k + 1) ~src ~dst:(mk ()))

let family_mixing_matches_solo =
  QCheck.Test.make ~name:"family_mixing_times = per-plane mixing_time"
    ~count:15
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let game, phi = random_potential_game ~players:3 ~strategies:2 seed in
      let fam = Logit.Logit_dynamics.chain_family game ~betas:family_grid in
      let space = Games.Game.space game in
      let pis =
        Array.of_list
          (List.map
             (fun beta -> Logit.Gibbs.stationary space phi ~beta)
             family_grid)
      in
      let starts = List.init (Family.size fam) Fun.id in
      let fused = Mixing.family_mixing_times fam ~pis ~starts in
      let solo =
        Array.of_list
          (List.mapi
             (fun i _ -> Mixing.mixing_time (Family.plane fam i) pis.(i) ~starts)
             family_grid)
      in
      fused = solo)

(* A family whose planes disagree on sparsity still works: structure
   sharing is detected, not assumed, and every panel entry point falls
   back to the per-plane kernels. *)
let family_non_shared_fallback () =
  let a = two_state 0.3 0.2 in
  let b = Chain.of_rows [| [| (1, 1.) |]; [| (0, 1.) |] |] in
  let fam = Family.v ~betas:[| 1.0; 2.0 |] ~planes:[| a; b |] in
  check_false "structure not shared" (Family.shared_structure fam);
  check_true "planes intact"
    (family_rows_equal (Family.plane fam 0) a
    && family_rows_equal (Family.plane fam 1) b);
  let k = 3 in
  let n = 2 in
  let src =
    Array.init 2 (fun _ ->
        panel_of_rows [| [| 1.; 0. |]; [| 0.25; 0.75 |]; [| 0.; 1. |] |])
  in
  let dst = Array.init 2 (fun _ -> panel_create (k * n)) in
  Family.evolve_many_into fam ~k ~src ~dst;
  Array.iteri
    (fun p c ->
      let solo = panel_create (k * n) in
      Chain.evolve_many_into c ~k ~src:src.(p) ~dst:solo;
      for row = 0 to k - 1 do
        check_array
          (Printf.sprintf "plane %d row %d" p row)
          (panel_row solo ~n row)
          (panel_row dst.(p) ~n row)
      done)
    [| a; b |]

let rec family_rm_rf path =
  if Sys.is_directory path then begin
    Array.iter
      (fun e -> family_rm_rf (Filename.concat path e))
      (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let family_codec_roundtrip () =
  let root = Filename.temp_file "logitdyn" ".family" in
  Sys.remove root;
  let cas = Store.Cas.open_ ~dir:root () in
  Fun.protect
    ~finally:(fun () -> try family_rm_rf root with Sys_error _ -> ())
    (fun () ->
      let game, _ = random_potential_game 7 in
      let size = Games.Strategy_space.size (Games.Game.space game) in
      let builds = ref 0 in
      let build () =
        incr builds;
        Logit.Logit_dynamics.chain_family game ~betas:family_grid
      in
      let cached () =
        Family_codec.cached ~store:cas ~game:"test-family" ~size
          ~betas:family_grid ~variant:"sequential-logit" build
      in
      let cold = cached () in
      check_int "cold build runs" 1 !builds;
      let warm = cached () in
      check_int "warm hit skips the build" 1 !builds;
      let fresh = build () in
      List.iteri
        (fun i _ ->
          check_true
            (Printf.sprintf "cold plane %d matches fresh" i)
            (family_rows_equal (Family.plane cold i) (Family.plane fresh i));
          check_true
            (Printf.sprintf "warm plane %d matches fresh" i)
            (family_rows_equal (Family.plane warm i) (Family.plane fresh i)))
        family_grid;
      check_true "warm family keeps shared structure"
        (Family.shared_structure warm);
      check_true "warm betas preserved"
        (Family.betas warm = Array.of_list family_grid);
      check_raises_invalid "empty grid rejected" (fun () ->
          ignore
            (Family_codec.cached ~store:cas ~game:"test-family" ~size ~betas:[]
               ~variant:"sequential-logit" build)))

let family_codec_corrupt_rejected () =
  let game, _ = random_potential_game 7 in
  let fam = Logit.Logit_dynamics.chain_family game ~betas:family_grid in
  let s = Family_codec.encode_structure fam in
  (match Family_codec.decode_structure s with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "structure roundtrip: %s" e);
  let p = Family_codec.encode_plane (Family.plane fam 1) in
  (match Family_codec.decode_plane p with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "plane roundtrip: %s" e);
  let truncate s = String.sub s 0 (String.length s - 1) in
  check_true "truncated structure rejected"
    (Result.is_error (Family_codec.decode_structure (truncate s)));
  check_true "truncated plane rejected"
    (Result.is_error (Family_codec.decode_plane (truncate p)))

(* --- symmetry-reduced start sets --------------------------------------- *)

let lifted space rho =
  match Games.Strategy_space.permute_players space rho with
  | Some sigma -> sigma
  | None -> Alcotest.fail "player permutation did not lift to the profiles"

let swap_of space =
  match Games.Strategy_space.swap_strategies space with
  | Some sigma -> sigma
  | None -> Alcotest.fail "no 0 <-> 1 relabelling on a binary space"

(* A catalog game's chain and law with its lifted player permutations
   and strategy swap, built the way the engine builds them. *)
let catalog_candidates game ~n ~beta =
  let spec = Option.get (Serve.Catalog.find game) in
  let space = Games.Game.space (fst (spec.Serve.Catalog.build ~n ~beta)) in
  let chain, pi = catalog_chain game ~n ~beta in
  (chain, pi, List.map (lifted space) (spec.Serve.Catalog.symmetries ~n), swap_of space)

let symmetry_ring_accepted () =
  List.iter
    (fun n ->
      List.iter
        (fun beta ->
          let chain, pi, perms, swap = catalog_candidates "ring" ~n ~beta in
          check_int "rotation and reflection" 2 (List.length perms);
          List.iteri
            (fun i sigma ->
              check_true
                (Printf.sprintf "ring n=%d beta=%g: %s accepted" n beta
                   (match i with 0 -> "rotation" | 1 -> "reflection" | _ -> "swap"))
                (Symmetry.verify chain pi sigma))
            (perms @ [ swap ]))
        [ 0.25; 2.; 16. ])
    [ 4; 5; 6; 7; 8 ]

(* A doubly stochastic 4-cycle with holding: π is uniform and every
   row has two entries of 1/2, so only the sparsity structure can tell
   a rotation from the transposition (0 1). *)
let holding_cycle () =
  Chain.of_csr ~row_start:[| 0; 2; 4; 6; 8 |]
    ~cols:[| 0; 1; 1; 2; 2; 3; 0; 3 |]
    ~probs:(Array.make 8 0.5)

let symmetry_rejections () =
  let chain, pi, perms, swap = catalog_candidates "curve" ~n:6 ~beta:1. in
  check_true "curve: player permutations accepted"
    (List.for_all (Symmetry.verify chain pi) perms);
  check_false "curve: strategy swap rejected" (Symmetry.verify chain pi swap);
  (* One CSR entry of ring n=5 moved by 1e-10 relative: the rotation
     that carries row 1 onto row 2 no longer matches. *)
  let chain, pi, perms, _ = catalog_candidates "ring" ~n:5 ~beta:1. in
  let rotation = List.hd perms in
  check_true "ring: rotation accepted" (Symmetry.verify chain pi rotation);
  let row_start, cols, probs = Chain.to_csr chain in
  let k = row_start.(1) in
  probs.(k) <- probs.(k) *. (1. +. 1e-10);
  let bumped = Chain.of_csr ~row_start ~cols ~probs in
  check_false "1e-10 relative change rejected" (Symmetry.verify bumped pi rotation);
  let size = Chain.size chain in
  check_false "constant map rejected" (Symmetry.verify chain pi (Array.make size 0));
  check_false "repeated image rejected"
    (Symmetry.verify chain pi (Array.init size (fun x -> if x = 0 then 1 else x)));
  check_false "short map rejected" (Symmetry.verify chain pi (Array.init (size - 1) Fun.id));
  let cycle = holding_cycle () and uniform = Array.make 4 0.25 in
  check_true "cycle: rotation accepted"
    (Symmetry.verify cycle uniform [| 1; 2; 3; 0 |]);
  check_false "cycle: structure-breaking transposition rejected"
    (Symmetry.verify cycle uniform [| 1; 0; 2; 3 |]);
  check_raises_invalid "pi of the wrong length" (fun () ->
      Symmetry.verify cycle [| 1. |] [| 0; 1; 2; 3 |])

let symmetry_orbits () =
  let reps gens = Symmetry.orbit_representatives ~size:6 gens in
  Alcotest.(check (list int)) "no generators" [ 0; 1; 2; 3; 4; 5 ] (reps []);
  Alcotest.(check (list int)) "(0 2 4)(1 5)" [ 0; 1; 3 ] (reps [ [| 2; 5; 4; 3; 0; 1 |] ]);
  Alcotest.(check (list int)) "two generators" [ 0; 3 ]
    (reps [ [| 2; 5; 4; 3; 0; 1 |]; [| 1; 0; 2; 3; 4; 5 |] ]);
  check_raises_invalid "non-bijective generator" (fun () -> reps [ Array.make 6 0 ]);
  let engine = Serve.Engine.create () in
  List.iter
    (fun (game, n, expected) ->
      match Serve.Engine.entry engine ~game ~n ~beta:1. with
      | Error msg -> Alcotest.fail msg
      | Ok e ->
          let starts = Serve.Engine.starts e in
          check_int (Printf.sprintf "%s n=%d orbit count" game n) expected
            (List.length starts);
          check_true (Printf.sprintf "%s n=%d: ascending from 0" game n)
            (List.hd starts = 0 && List.sort_uniq compare starts = starts))
    [ ("ring", 12, 122); ("clique", 12, 7); ("curve", 12, 13); ("path", 12, 1056);
      ("ring", 7, 9) ]

(* Graphical coordination on a random circulant graph (edges
   {i, i + c mod n} for a random offset set): rotation-invariant by
   construction, and swap-invariant exactly when delta0 = delta1. The
   orbit starts must give the all-starts t_mix. *)
let symmetry_circulant_property =
  QCheck.Test.make
    ~name:"circulant coordination: rotation kept, swap iff delta0 = delta1, orbit t_mix = full"
    ~count:30 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let r = Prob.Rng.create seed in
      let n = 4 + Prob.Rng.int r 4 in
      let offsets = List.init (n / 2) (fun c -> c + 1) in
      let offsets =
        match List.filter (fun _ -> Prob.Rng.bool r) offsets with
        | [] -> [ 1 + Prob.Rng.int r (n / 2) ]
        | some -> some
      in
      let graph =
        Graphs.Graph.of_edges n
          (List.concat_map (fun c -> List.init n (fun i -> (i, (i + c) mod n))) offsets)
      in
      let deltas = [| 0.5; 1.; 1.5; 2. |] in
      let i0 = Prob.Rng.int r 4 in
      let symmetric = Prob.Rng.bool r in
      let i1 = if symmetric then i0 else (i0 + 1 + Prob.Rng.int r 3) mod 4 in
      let beta = [| 0.25; 0.5; 1. |].(Prob.Rng.int r 3) in
      let desc =
        Games.Graphical.create graph
          (Games.Coordination.of_deltas ~delta0:deltas.(i0) ~delta1:deltas.(i1))
      in
      let game = Games.Graphical.to_game desc in
      let space = Games.Game.space game in
      let chain = Logit.Logit_dynamics.chain game ~beta in
      let pi = Logit.Gibbs.stationary space (Games.Graphical.potential desc) ~beta in
      let rotation = lifted space (Array.init n (fun i -> (i + 1) mod n)) in
      let swap = swap_of space in
      let decomposition = Mixing.decompose chain pi in
      let tmix starts =
        List.map
          (fun eps -> Mixing.mixing_time_from_decomposition ~eps ~decomposition pi ~starts)
          [ 0.1; 0.25 ]
      in
      Symmetry.verify chain pi rotation
      && Symmetry.verify chain pi swap = symmetric
      && tmix (Symmetry.starts chain pi [ rotation; swap ])
         = tmix (List.init (Chain.size chain) Fun.id))

let suites =
  [
    ( "markov.chain",
      [
        test "validation" chain_validation;
        test "evolve & apply" chain_evolve_apply;
        test "irreducible & aperiodic" chain_structure;
        test "reversibility" chain_reversibility;
        test "simulate & hitting" chain_simulate;
        test "sample frequencies" chain_sample_frequencies;
      ] );
    ( "markov.csr",
      [
        test "rows sorted & duplicate-free" csr_rows_sorted_dupfree;
        qcheck csr_rows_sorted_random;
        qcheck csr_prob_binary_search;
        qcheck csr_evolve_bit_identical;
        qcheck csr_sampler_agreement;
        test "sampler boundaries" csr_sample_boundaries;
        test "negative step validation" csr_validation_negative_steps;
      ] );
    ( "markov.csc",
      [
        test "two-state transpose" csc_two_state;
        qcheck csc_invariants_random;
        qcheck pull_matches_push;
        qcheck spmm_matches_single_evolves;
        test "spmm validation" spmm_validation;
      ] );
    ( "markov.stationary",
      [
        test "two-state closed form" stationary_two_state;
        qcheck stationary_solve_matches_power;
        qcheck stationary_gibbs_is_stationary;
      ] );
    ( "markov.mixing",
      [
        test "two-state exact" mixing_two_state_exact;
        test "empirical tv" mixing_empirical_close;
        test "empirical tv validation" mixing_empirical_validation;
        test "spectral bound formulas" mixing_spectral_bounds;
        test "squaring at extreme beta" mixing_squaring_extreme_beta;
        test "squaring size guard" mixing_squaring_size_guard;
        test "routes agree on every step budget" mixing_routes_agree_on_budgets;
        test "spectral search = per-start reference"
          mixing_spectral_search_matches_reference;
        test "spectral search validates every start" mixing_spectral_validates_starts;
        test "spectral t_mix on ring n=7 = e2e goldens" mixing_spectral_ring7_goldens;
        qcheck mixing_monotone;
        qcheck mixing_spectral_matches_evolution;
        qcheck mixing_squaring_matches_evolution;
      ] );
    ( "markov.symmetry",
      [
        test "ring rotation, reflection and swap accepted" symmetry_ring_accepted;
        test "rejections" symmetry_rejections;
        test "orbit representatives and counts" symmetry_orbits;
        qcheck symmetry_circulant_property;
      ] );
    ( "markov.family",
      [
        qcheck family_planes_bit_identical;
        test "game zoo planes & shared structure" family_game_zoo;
        test "accessors" family_accessors;
        test "validation" family_validation;
        qcheck family_fused_spmm_matches_per_plane;
        test "fused SpMM validation" family_spmm_validation;
        qcheck family_mixing_matches_solo;
        test "non-shared structure fallback" family_non_shared_fallback;
        test "codec cached cold/warm" family_codec_roundtrip;
        test "codec roundtrip & corrupt rejection" family_codec_corrupt_rejected;
      ] );
    ( "markov.spectral",
      [
        test "two-state" spectral_two_state;
        test "rejects non-reversible" spectral_rejects_nonreversible;
        qcheck spectral_lambda2_matches_jacobi;
        qcheck spectral_relaxation_brackets_tmix;
      ] );
    ( "markov.bottleneck",
      [
        test "two-state" bottleneck_two_state;
        qcheck bottleneck_lower_bound_valid;
        test "rejects heavy proper subset" bottleneck_rejects_heavy_proper_subset;
        test "two-well barrier chain" bottleneck_two_well_barrier;
      ] );
    ( "markov.absorbing_structure",
      [
        test "rejects closed transient class"
          absorbing_rejects_closed_transient_class;
      ] );
    ( "markov.coupling",
      [
        test "independent coalesces" coupling_independent_coalesces;
        test "stays together" coupling_stays_together;
        test "estimate bounds tmix" coupling_estimate_bounds_tmix;
        test "censoring" coupling_censoring;
      ] );
    ( "markov.birth_death",
      [
        test "validation" bd_validation;
        test "stationary closed forms" bd_stationary_closed_form;
        test "chain consistency" bd_chain_consistent;
        test "mixing & spectrum" bd_mixing_consistent;
      ] );
  ]
