(* Shared evaluation engine behind the CLI and the daemon.

   One instance owns: an in-memory cache of built chains (keyed by
   game id, n and the exact beta bits), the on-disk Store.Cas warm
   cache for chain and stationary artifacts, an optional domain pool
   for the SpMM kernels, and the route policy (spectral vs panel) for
   mixing queries. The CLI's serial answers and the daemon's coalesced
   answers both come out of this module — through the very same
   Mixing.panel_sweep / mixing_time_from_decomposition primitives — so
   they agree bit for bit. *)

module P = Protocol

type entry = {
  spec : Catalog.spec;
  game : Games.Game.t;
  potential : (int -> float) option;
  chain : Markov.Chain.t;
  pi : float array;
  reversible : bool;
  mutable decomposition : (float array * Linalg.Mat.t) option;
  mutable starts : int list option;
}

type t = {
  pool : Exec.Pool.t option;
  store : Store.Cas.t option;
  spectral_cutoff : int;
  max_steps : int;
  chains : (string * int * int64, (entry, string) result) Hashtbl.t;
  mutable cache_hits : int;
  mutable cache_misses : int;
}

let default_spectral_cutoff = 2048
let default_max_steps = 5_000_000

(* Mirrors the CLI's historical guard: exact evolution beyond 2^16
   states is out of budget for a query daemon. *)
let max_state_space = 1 lsl 16

let create ?pool ?store ?(spectral_cutoff = default_spectral_cutoff)
    ?(max_steps = default_max_steps) () =
  if max_steps < 0 then invalid_arg "Engine.create: negative max_steps";
  {
    pool;
    store;
    spectral_cutoff;
    max_steps;
    chains = Hashtbl.create 16;
    cache_hits = 0;
    cache_misses = 0;
  }

let pool t = t.pool
let max_steps t = t.max_steps

let store_stats t =
  match t.store with
  | None -> (0, 0)
  | Some cas ->
      let s = Store.Cas.stats cas in
      (s.Store.Cas.hits, s.Store.Cas.misses)

let cache_stats t = (t.cache_hits, t.cache_misses)

(* Chain builds are keyed by the full recipe: game id, n, state count,
   exact beta, dynamics variant, CSR layout + codec versions. *)
let build_chain ?pool ~store spec game ~n ~beta =
  let key =
    Markov.Chain_codec.recipe ~game:spec.Catalog.id ~size:(Games.Game.size game)
      ~beta ~variant:"sequential-logit"
      ~extra:[ ("n", string_of_int n) ]
      ()
  in
  Markov.Chain_codec.cached ?store key (fun () ->
      Logit.Logit_dynamics.chain ?pool game ~beta)

let stationary_key spec ~n ~size ~beta =
  Store.Key.v ~kind:"dist"
    [
      ("game", spec.Catalog.id);
      ("n", string_of_int n);
      ("size", string_of_int size);
      ("beta", Store.Key.float_field beta);
      ("role", "stationary");
      ("codec", string_of_int Store.Codec.version);
    ]

let stationary_of ?store spec game potential ~n ~beta =
  let compute () =
    match potential with
    | Some phi -> Logit.Gibbs.stationary (Games.Game.space game) phi ~beta
    | None ->
        let chain = Logit.Logit_dynamics.chain game ~beta in
        Markov.Stationary.by_solve chain
  in
  match store with
  | None -> compute ()
  | Some cas -> (
      let size = Games.Game.size game in
      let key = stationary_key spec ~n ~size ~beta in
      match Store.Cas.get_decoded cas key ~decode:Store.Codec.decode_dist with
      | Some pi when Array.length pi = size -> pi
      | _ ->
          let pi = compute () in
          Store.Cas.put cas key (Store.Codec.encode_dist pi);
          pi)

let build_entry t ~game:game_id ~n ~beta =
  match Catalog.find game_id with
  | None -> Error (Printf.sprintf "unknown game %S" game_id)
  | Some spec -> (
      match spec.Catalog.build ~n ~beta with
      | exception Invalid_argument msg -> Error msg
      | game, potential ->
          let size = Games.Game.size game in
          if size > max_state_space then
            Error
              (Printf.sprintf "state space too large (%d > %d); reduce n" size
                 max_state_space)
          else begin
            let chain = build_chain ?pool:t.pool ~store:t.store spec game ~n ~beta in
            let pi = stationary_of ?store:t.store spec game potential ~n ~beta in
            let reversible = Markov.Chain.is_reversible ~tol:1e-7 chain pi in
            Ok
              {
                spec;
                game;
                potential;
                chain;
                pi;
                reversible;
                decomposition = None;
                starts = None;
              }
          end)

let entry t ~game ~n ~beta =
  let key = (game, n, Int64.bits_of_float beta) in
  match Hashtbl.find_opt t.chains key with
  | Some cached ->
      t.cache_hits <- t.cache_hits + 1;
      cached
  | None ->
      t.cache_misses <- t.cache_misses + 1;
      let built = build_entry t ~game ~n ~beta in
      Hashtbl.replace t.chains key built;
      built

let spectral_route t e =
  e.reversible && Games.Game.size e.game <= t.spectral_cutoff

let decomposition e =
  match e.decomposition with
  | Some d -> d
  | None ->
      let d = Markov.Mixing.decompose e.chain e.pi in
      e.decomposition <- Some d;
      d

let all_starts e = List.init (Games.Game.size e.game) Fun.id

(* The candidate symmetries of an entry's chain as profile-index
   permutations: the catalog's player permutations, plus the global
   0 <-> 1 relabelling when every player has two strategies. *)
let candidates e =
  let space = Games.Game.space e.game in
  let n = Games.Strategy_space.num_players space in
  List.filter_map
    (Games.Strategy_space.permute_players space)
    (e.spec.Catalog.symmetries ~n)
  @ Option.to_list (Games.Strategy_space.swap_strategies space)

let starts e =
  match e.starts with
  | Some s -> s
  | None ->
      let s = Markov.Symmetry.starts e.chain e.pi (candidates e) in
      e.starts <- Some s;
      s

(* The decomposition resolves its eigenvectors near λ = 1 only to
   about 1e-16 / (1 − λ★), so where the gap 1 − λ★ is tiny two starts
   of one orbit get visibly different spectral TVs, and which of them
   is evaluated moves t_mix. Over the catalog at n ≤ 7,
   β ∈ {0.25, 0.5, 1, 1.5, 2, 3, 4} and ε ∈ {0.1, 0.25} (560 points),
   the orbit starts moved the spectral t_mix at 4 points, all at gaps
   of 3.6e-8 or below (clique n = 5, β = 4, gap 9e-11: 17 781 330 668
   against 17 781 625 865 over every state), and at none of the 546
   points with a gap of 1e-7 or more. The drift in steps grows as the
   inverse square of the gap; this bound sits two orders of magnitude
   above 1e-7, and below it the spectral route keeps every start. *)
let min_orbit_gap = 1e-5

let spectral_tmix e ~eps =
  let ((values, _) as decomposition) = decomposition e in
  let k = Array.length values in
  let lambda_star =
    if k < 2 then 0. else Float.max values.(1) (Float.abs values.(k - 1))
  in
  let starts = if 1. -. lambda_star >= min_orbit_gap then starts e else all_starts e in
  Markov.Mixing.mixing_time_from_decomposition ~eps ~decomposition e.pi ~starts

(* φ is tabulated once: [delta_local] reads it for every neighbour of
   every profile and [zeta] for every profile, and one evaluation of a
   graphical game's φ is a fold over its edges. *)
let barrier_of e =
  match e.potential with
  | None -> None
  | Some phi ->
      let space = Games.Game.space e.game in
      let values = Array.init (Games.Game.size e.game) phi in
      let phi = Array.get values in
      Some
        {
          P.d_global = Games.Potential.delta_global space phi;
          d_local = Games.Potential.delta_local space phi;
          zeta = Logit.Barrier.zeta space phi;
        }

let empirical_of t e ~tmix ~replicas ~seed =
  if replicas <= 0 then None
  else begin
    let steps = Option.value tmix ~default:1000 in
    let tv =
      Markov.Mixing.empirical_tv ?pool:t.pool (Prob.Rng.create seed) e.chain e.pi
        ~start:0 ~steps ~replicas
    in
    Some (steps, tv)
  end

let mixing_reply_of t e ~tmix ~replicas ~seed =
  P.Mixing_r
    {
      P.size = Games.Game.size e.game;
      reversible = e.reversible;
      route = (if spectral_route t e then P.Spectral else P.Panel);
      tmix;
      empirical = empirical_of t e ~tmix ~replicas ~seed;
      barrier = barrier_of e;
    }

(* d(t) is never negative, so a threshold that is not > 0 (zero,
   negative or NaN) is never met and the panel would sweep the whole
   step budget. *)
let check_eps eps =
  if eps > 0. then Ok ()
  else Error (P.Bad_request (Printf.sprintf "eps must be > 0 (got %g)" eps))

let eval_mixing t e ~eps ~replicas ~seed =
  let tmix =
    if spectral_route t e then spectral_tmix e ~eps
    else
      Markov.Mixing.mixing_time ?pool:t.pool ~eps ~max_steps:t.max_steps e.chain
        e.pi ~starts:(starts e)
  in
  mixing_reply_of t e ~tmix ~replicas ~seed

(* The dense hitting-time solve has a tighter budget than panel
   evolution; both bounds are the CLI's historical ones. *)
let max_hitting_space = 4096
let hitting_tmix_budget = 2_000_000

let eval_hitting t e =
  let size = Games.Game.size e.game in
  if size > max_hitting_space then
    Error
      (P.Bad_request
         (Printf.sprintf "state space too large (%d) for the dense solve" size))
  else
    match e.potential with
    | None ->
        Error
          (P.Bad_request "hitting targets are defined via the potential; game has none")
    | Some phi ->
        let space = Games.Game.space e.game in
        let vmin, argmin, _, _ = Games.Potential.extrema space phi in
        let target idx = phi idx <= vmin +. 1e-12 in
        let times = Markov.Hitting.expected_times e.chain ~target in
        let worst = Array.fold_left Float.max 0. times in
        let hit_tmix =
          Markov.Mixing.mixing_time ?pool:t.pool
            ~max_steps:hitting_tmix_budget e.chain e.pi ~starts:(starts e)
        in
        Ok
          (P.Hitting_r
             { P.size; argmin; phi_min = vmin; worst_hitting = worst; hit_tmix })

let eval t (q : P.query) : (P.reply, P.error) result =
  match q with
  | P.Stats -> Error (P.Server_error "Stats is answered by the server, not the engine")
  | P.Mixing { game; n; beta; eps; replicas; seed } ->
      Result.bind (check_eps eps) (fun () ->
          match entry t ~game ~n ~beta with
          | Error msg -> Error (P.Bad_request msg)
          | Ok e -> Ok (eval_mixing t e ~eps ~replicas ~seed))
  | P.Stationary { game; n; beta } -> (
      match entry t ~game ~n ~beta with
      | Error msg -> Error (P.Bad_request msg)
      | Ok e -> Ok (P.Stationary_r (Array.copy e.pi)))
  | P.Hitting { game; n; beta } -> (
      match entry t ~game ~n ~beta with
      | Error msg -> Error (P.Bad_request msg)
      | Ok e -> eval_hitting t e)
  | P.Simulate { game; n; beta; steps; seed } -> (
      match entry t ~game ~n ~beta with
      | Error msg -> Error (P.Bad_request msg)
      | Ok e ->
          if steps < 0 then Error (P.Bad_request "negative steps")
          else begin
            let rng = Prob.Rng.create seed in
            let traj =
              Logit.Logit_dynamics.trajectory rng e.game ~beta ~start:0 ~steps
            in
            Ok (P.Simulate_r traj)
          end)
  | P.Sample { game; n; beta; count; seed } -> (
      match entry t ~game ~n ~beta with
      | Error msg -> Error (P.Bad_request msg)
      | Ok e ->
          if count < 1 then Error (P.Bad_request "need count >= 1")
          else begin
            let space = Games.Game.space e.game in
            let binary =
              List.init (Games.Strategy_space.num_players space) (fun i ->
                  Games.Strategy_space.num_strategies space i)
              |> List.for_all (( = ) 2)
            in
            if not binary then
              Error (P.Bad_request "CFTP requires binary strategies")
            else begin
              let rng = Prob.Rng.create seed in
              let samples = Array.make count 0 in
              let max_window = ref 0 in
              match
                for k = 0 to count - 1 do
                  let x, window =
                    Logit.Perfect_sampling.coalescence_epoch rng e.game ~beta
                  in
                  samples.(k) <- x;
                  if window > !max_window then max_window := window
                done
              with
              | () -> Ok (P.Sample_r { samples; max_window = !max_window })
              | exception Common.No_convergence msg ->
                  Error (P.Server_error msg)
            end
          end)
