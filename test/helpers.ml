(* Shared test helpers. *)

let check_float ?(tol = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.12g, got %.12g (tol %.1e)" msg expected actual tol

let check_true msg cond = Alcotest.(check bool) msg true cond
let check_false msg cond = Alcotest.(check bool) msg false cond
let check_int msg expected actual = Alcotest.(check int) msg expected actual

let check_array ?(tol = 1e-9) msg expected actual =
  check_int (msg ^ ": length") (Array.length expected) (Array.length actual);
  Array.iteri
    (fun i x -> check_float ~tol (Printf.sprintf "%s[%d]" msg i) x actual.(i))
    expected

let check_raises_invalid msg f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" msg

let test name f = Alcotest.test_case name `Quick f

(* A deterministic RNG per test. *)
let rng ?(seed = 42) () = Prob.Rng.create seed

(* Random small reversible chain: a random-weight Gibbs-like chain via a
   random potential on a small cube. *)
let random_potential_game ?(players = 3) ?(strategies = 2) seed =
  let r = Prob.Rng.create seed in
  Games.Zoo.random_potential r ~players ~strategies

let qcheck t = QCheck_alcotest.to_alcotest t

(* Flat row-major Float64 panels for the SpMM kernel tests. *)
let panel_of_rows rows =
  let k = Array.length rows in
  let n = if k = 0 then 0 else Array.length rows.(0) in
  let p = Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout (k * n) in
  Array.iteri
    (fun r row ->
      Array.iteri (fun i x -> Bigarray.Array1.set p ((r * n) + i) x) row)
    rows;
  p

let panel_create len = Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout len

(* The explicit panel annotation keeps the Bigarray read on the
   monomorphic fast path (and the bigarray-boxing lint quiet). *)
let panel_row (p : Markov.Chain.panel) ~n r =
  Array.init n (fun i -> Bigarray.Array1.get p ((r * n) + i))

(* Source vectors for the evolve-kernel tests: a fair share of exact
   zeros, which the reference scatter skips and the gather adds as
   +0. summands. *)
let random_sparse_vector r n =
  Array.init n (fun _ -> if Prob.Rng.float r < 0.4 then 0. else Prob.Rng.float r)

let contains_substring haystack needle =
  let n = String.length needle and h = String.length haystack in
  if n = 0 then true
  else begin
    let found = ref false in
    for i = 0 to h - n do
      if (not !found) && String.sub haystack i n = needle then found := true
    done;
    !found
  end

(* The logit chain and Gibbs law of a catalog game ("ring", "clique",
   "curve", ...), built the way the CLI and the daemon build them. *)
let catalog_chain game ~n ~beta =
  match Serve.Catalog.find game with
  | None -> Alcotest.failf "catalog has no game %S" game
  | Some spec -> (
      match spec.Serve.Catalog.build ~n ~beta with
      | _, None -> Alcotest.failf "%s has no potential" game
      | g, Some phi ->
          ( Logit.Logit_dynamics.chain g ~beta,
            Logit.Gibbs.stationary (Games.Game.space g) phi ~beta ))
