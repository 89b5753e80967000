type t = { up : float array; down : float array }

let create ~up ~down =
  let n1 = Array.length up in
  if n1 = 0 || Array.length down <> n1 then
    invalid_arg "Birth_death.create: need equal non-empty arrays";
  let n = n1 - 1 in
  (* lint: allow float-equality — boundary rates must be exactly zero *)
  if up.(n) <> 0. then invalid_arg "Birth_death.create: up.(n) must be 0";
  (* lint: allow float-equality — boundary rates must be exactly zero *)
  if down.(0) <> 0. then invalid_arg "Birth_death.create: down.(0) must be 0";
  Array.iteri
    (fun k u ->
      let d = down.(k) in
      if u < 0. || d < 0. then invalid_arg "Birth_death.create: negative rate";
      if u +. d > 1. +. 1e-12 then
        invalid_arg "Birth_death.create: up + down exceeds 1")
    up;
  { up = Array.copy up; down = Array.copy down }

let size t = Array.length t.up
let up t k = t.up.(k)
let down t k = t.down.(k)

let to_chain t =
  let n1 = size t in
  Chain.of_rows
    (Array.init n1 (fun k ->
         let stay = 1. -. t.up.(k) -. t.down.(k) in
         let entries = ref [] in
         if t.up.(k) > 0. then entries := (k + 1, t.up.(k)) :: !entries;
         if t.down.(k) > 0. then entries := (k - 1, t.down.(k)) :: !entries;
         if stay > 1e-15 then entries := (k, stay) :: !entries;
         Array.of_list !entries))

let stationary t =
  let n1 = size t in
  let log_weights = Array.make n1 0. in
  for k = 1 to n1 - 1 do
    if t.up.(k - 1) <= 0. || t.down.(k) <= 0. then
      invalid_arg "Birth_death.stationary: chain is not irreducible";
    log_weights.(k) <- log_weights.(k - 1) +. log t.up.(k - 1) -. log t.down.(k)
  done;
  Prob.Logspace.normalize_logs log_weights

let mixing_time ?eps ?max_steps t =
  let chain = to_chain t in
  Mixing.mixing_time_all ?eps ?max_steps chain (stationary t)

let spectrum t = Spectral.spectrum (to_chain t) (stationary t)

let relaxation_time t = 1. /. (1. -. Spectral.lambda_star_of_spectrum (spectrum t))

let decomposition t =
  let n1 = size t in
  let diag = Array.init n1 (fun k -> 1. -. t.up.(k) -. t.down.(k)) in
  let off = Array.init (n1 - 1) (fun k -> sqrt (t.up.(k) *. t.down.(k + 1))) in
  Linalg.Tridiag.eigensystem ~diag ~off

let mixing_time_spectral ?eps ?max_steps t =
  let pi = stationary t in
  let starts = List.init (size t) Fun.id in
  let pi_min = Array.fold_left Float.min infinity pi in
  (* The eigendecomposition route loses all precision once 1/sqrt(pi)
     amplifies eigenvector round-off past the TV threshold; fall back
     to exact repeated squaring for such extreme chains. *)
  if pi_min > 1e-25 then
    Mixing.mixing_time_from_decomposition ?eps ?max_steps
      ~decomposition:(decomposition t) pi ~starts
  else Mixing.mixing_time_squaring ?eps ?max_steps (to_chain t) pi ~starts
