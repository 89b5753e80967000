open Games

let update_distribution game ~beta ~player idx =
  if beta < 0. then invalid_arg "Logit_dynamics: beta must be non-negative";
  let space = Game.space game in
  let m = Strategy_space.num_strategies space player in
  let log_weights =
    Array.init m (fun a ->
        beta *. Game.utility game player (Strategy_space.replace space idx player a))
  in
  Prob.Logspace.normalize_logs log_weights

let transition_row game ~beta idx =
  let space = Game.space game in
  let n = Strategy_space.num_players space in
  let inv_n = 1. /. float_of_int n in
  let self = ref 0. in
  let entries = ref [] in
  for i = 0 to n - 1 do
    let sigma = update_distribution game ~beta ~player:i idx in
    let current = Strategy_space.player_strategy space idx i in
    Array.iteri
      (fun a p ->
        if a = current then self := !self +. (inv_n *. p)
        else if p > 0. then
          entries := (Strategy_space.replace space idx i a, inv_n *. p) :: !entries)
      sigma
  done;
  if !self > 0. then (idx, !self) :: !entries else !entries

let chain ?pool game ~beta =
  Markov.Chain.of_function ?pool (Game.size game) (fun idx ->
      transition_row game ~beta idx)

(* β-family build: tabulate the β-independent part of every row once —
   per (state, player, strategy) the utility, the deviation target and
   the current strategy — then re-softmax the tabulated utilities per β
   and assemble each row in [transition_row]'s exact order. The log
   weights are [beta *. u] with the very same [u] a fresh
   [update_distribution] would compute, the softmax is the same
   [normalize_logs] call, and the self-loop accumulates over players
   0..n-1 exactly as above, so every plane is bit-identical to an
   independent [chain ~beta] build (same [of_function] / [of_rows]
   pipeline downstream). *)
let chain_family ?pool game ~betas =
  if betas = [] then invalid_arg "Logit_dynamics.chain_family: empty beta grid";
  List.iter
    (fun beta ->
      if beta < 0. then invalid_arg "Logit_dynamics: beta must be non-negative")
    betas;
  let space = Game.space game in
  let n = Strategy_space.num_players space in
  let size = Game.size game in
  let offs = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    offs.(i + 1) <- offs.(i) + Strategy_space.num_strategies space i
  done;
  let stride = offs.(n) in
  let utils = Array.make (size * stride) 0. in
  let targets = Array.make (size * stride) 0 in
  let currents = Array.make (size * n) 0 in
  (* Tabulation: state idx owns slices [idx*stride, (idx+1)*stride) of
     utils/targets and [idx*n, (idx+1)*n) of currents — one writer per
     cell, so the captured writes below are race-free. *)
  Exec.Pool.iter_opt ~cost:1024 pool ~n:size (fun idx ->
      for i = 0 to n - 1 do
        (* lint: allow domain-capture — currents.(idx*n+i) has exactly one writer, state idx *)
        currents.((idx * n) + i) <- Strategy_space.player_strategy space idx i;
        let o = (idx * stride) + offs.(i) in
        for a = 0 to offs.(i + 1) - offs.(i) - 1 do
          let target = Strategy_space.replace space idx i a in
          (* lint: allow domain-capture — targets.(o+a) has exactly one writer, state idx *)
          targets.(o + a) <- target;
          (* lint: allow domain-capture — utils.(o+a) has exactly one writer, state idx *)
          utils.(o + a) <- Game.utility game i target
        done
      done);
  let inv_n = 1. /. float_of_int n in
  let row_of_beta beta idx =
    let self = ref 0. in
    let entries = ref [] in
    for i = 0 to n - 1 do
      let o = (idx * stride) + offs.(i) in
      let m = offs.(i + 1) - offs.(i) in
      let log_weights = Array.init m (fun a -> beta *. utils.(o + a)) in
      let sigma = Prob.Logspace.normalize_logs log_weights in
      let current = currents.((idx * n) + i) in
      Array.iteri
        (fun a p ->
          if a = current then self := !self +. (inv_n *. p)
          else if p > 0. then entries := (targets.(o + a), inv_n *. p) :: !entries)
        sigma
    done;
    if !self > 0. then (idx, !self) :: !entries else !entries
  in
  let planes =
    List.map
      (fun beta -> Markov.Chain.of_function ?pool size (row_of_beta beta))
      betas
  in
  Markov.Family.v ~betas:(Array.of_list betas) ~planes:(Array.of_list planes)

let step rng game ~beta idx =
  let space = Game.space game in
  let player = Prob.Rng.int rng (Strategy_space.num_players space) in
  let sigma = update_distribution game ~beta ~player idx in
  let a = Prob.Rng.categorical rng sigma in
  Strategy_space.replace space idx player a

let trajectory rng game ~beta ~start ~steps =
  if steps < 0 then invalid_arg "Logit_dynamics.trajectory: negative steps";
  let out = Array.make (steps + 1) start in
  for k = 1 to steps do
    out.(k) <- step rng game ~beta out.(k - 1)
  done;
  out

(* The tabulated sampler. σᵢ(·|x) depends only on (x, i), so slot
   [x * n + i] keeps the array [update_distribution] returns for it, the
   total [Rng.categorical] would fold over it, and [x] with player i's
   strategy set to 0 (the base: [replace x i a] is base + a·stride_i).
   A slot is filled on its first visit; until then it holds the empty
   array, which no filled slot can hold ([categorical_total] rejects
   it). A draw is then the [Rng.int] / [Rng.float] / [categorical_pick]
   sequence of [step] over the very same floats, so [walk] and
   [trajectory] agree bit for bit, exceptions included. *)
type sampler = {
  game : Game.t;
  beta : float;
  space : Strategy_space.t;
  players : int;
  strides : int array;
  sigmas : float array array;
  totals : float array;
  bases : int array;
}

let sampler game ~beta =
  let space = Game.space game in
  let players = Strategy_space.num_players space in
  let slots = Game.size game * players in
  (* Profile 0 plays strategy 0 everywhere, so moving player i to
     strategy 1 adds exactly stride_i; a one-strategy player never
     moves. *)
  let stride i =
    if Strategy_space.num_strategies space i < 2 then 0
    else Strategy_space.replace space 0 i 1
  in
  {
    game;
    beta;
    space;
    players;
    strides = Array.init players stride;
    sigmas = Array.make slots [||];
    totals = Array.make slots 0.;
    bases = Array.make slots 0;
  }

let fill s ~slot ~player x =
  let sigma = update_distribution s.game ~beta:s.beta ~player x in
  s.totals.(slot) <- Prob.Rng.categorical_total sigma;
  s.bases.(slot) <- Strategy_space.replace s.space x player 0;
  s.sigmas.(slot) <- sigma

let walk s rng ~start ~steps =
  if steps < 0 then invalid_arg "Logit_dynamics.walk: negative steps";
  if start < 0 || start >= Strategy_space.size s.space then
    invalid_arg "Logit_dynamics.walk: start outside the state space";
  let out = Array.make (steps + 1) start in
  let x = ref start in
  for k = 1 to steps do
    let player = Prob.Rng.int rng s.players in
    let slot = (!x * s.players) + player in
    if Array.length s.sigmas.(slot) = 0 then fill s ~slot ~player !x;
    let a =
      Prob.Rng.categorical_pick s.sigmas.(slot)
        ~u:(Prob.Rng.float rng *. s.totals.(slot))
    in
    x := s.bases.(slot) + (a * s.strides.(player));
    out.(k) <- !x
  done;
  out

let best_response_probability game ~beta idx =
  let space = Game.space game in
  let n = Strategy_space.num_players space in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    let sigma = update_distribution game ~beta ~player:i idx in
    let best = Game.best_responses game i idx in
    List.iter (fun a -> acc := !acc +. sigma.(a)) best
  done;
  !acc /. float_of_int n
