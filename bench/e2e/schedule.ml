(* Workload inputs, made from the seed alone. The programs under test
   receive only what these functions generate. *)

module P = Serve.Protocol

(* The two mixing workloads' input sets. Every run covers the whole
   set, so runs cost the same whatever the seed; the seed fixes the
   order in which the inputs are taken. *)
let spectral_n = 7
let spectral_betas = [ 0.5; 1.0; 1.5; 2.0 ]
let panel_n = 12
let panel_betas = [ 0.25; 0.5 ]

let shuffled ~seed xs =
  let a = Array.of_list xs in
  Prob.Rng.shuffle (Prob.Rng.create seed) a;
  Array.to_list a

(* --- daemon traffic ------------------------------------------------------ *)

type entry = { game : string; n : int; beta : float }

(* The chains the daemon holds warm: {ring, clique, curve} x n in {4, 5}
   x beta in {0.5, 1, 1.5, 2}. Larger n makes service times swing
   between 20 and 60 ms and p99 stops repeating. *)
let entries =
  List.concat_map
    (fun game ->
      List.concat_map
        (fun n -> List.map (fun beta -> { game; n; beta }) spectral_betas)
        [ 4; 5 ])
    [ "ring"; "clique"; "curve" ]

let simulate_steps = 1000
let simulate_seeds = 8
let mixing_eps = [ 0.1; 0.25 ]

let warmup_query e =
  P.Mixing { game = e.game; n = e.n; beta = e.beta; eps = 0.25; replicas = 0; seed = 1 }

(* Every query the traffic generator can produce, for the golden file. *)
let all_queries =
  List.concat_map
    (fun e ->
      (P.Stationary { game = e.game; n = e.n; beta = e.beta })
      :: List.map
           (fun eps ->
             P.Mixing
               { game = e.game; n = e.n; beta = e.beta; eps; replicas = 0; seed = 1 })
           mixing_eps
      @ List.init simulate_seeds (fun seed ->
            P.Simulate
              { game = e.game; n = e.n; beta = e.beta; steps = simulate_steps; seed }))
    entries

type request = {
  due_ns : int64;  (** offset from the start of the load *)
  query : P.query;
  conn : int;  (** which of the two connections sends it *)
}

(* One deck of traffic: per chain, 24 Stationary, 6 Simulate and 5
   Mixing at each of the two eps — a 60/15/25 mix. No measurement of
   real clients stands behind these shares; they are the benchmark's
   design choice. *)
let kind_slots =
  List.init 24 (fun _ -> `Stationary)
  @ List.init 6 (fun _ -> `Simulate)
  @ List.concat_map (fun eps -> List.init 5 (fun _ -> `Mixing eps)) mixing_eps

let deck_size = List.length kind_slots * List.length entries

(* [traffic ~seed ~rate ~decks] is a Poisson arrival schedule at [rate]
   requests per second over two connections, its queries dealt from
   [decks] shuffled decks of (kind, chain) cards. Dealing rather than
   drawing each query independently gives every seed the same mix, so
   only order and arrival times change with the seed: p99 is set by a
   few slow Mixing replies on the larger chains, and an independent
   draw would move it with how many of them a seed happens to pick. *)
let traffic ~seed ~rate ~decks =
  let rng = Prob.Rng.create seed in
  let cards =
    Array.concat
      (List.init decks (fun _ ->
           let d =
             Array.of_list
               (List.concat_map (fun e -> List.map (fun k -> (k, e)) kind_slots) entries)
           in
           Prob.Rng.shuffle rng d;
           d))
  in
  let clock = ref 0. in
  Array.to_list
    (Array.map
       (fun (kind, e) ->
         clock := !clock +. Prob.Rng.exponential rng ~rate;
         let query =
           match kind with
           | `Stationary -> P.Stationary { game = e.game; n = e.n; beta = e.beta }
           | `Simulate ->
               P.Simulate
                 {
                   game = e.game;
                   n = e.n;
                   beta = e.beta;
                   steps = simulate_steps;
                   seed = Prob.Rng.int rng simulate_seeds;
                 }
           | `Mixing eps ->
               P.Mixing
                 { game = e.game; n = e.n; beta = e.beta; eps; replicas = 0; seed = 1 }
         in
         { due_ns = Int64.of_float (!clock *. 1e9); query; conn = Prob.Rng.int rng 2 })
       cards)

let kind = function
  | P.Mixing _ -> "mixing"
  | P.Stationary _ -> "stationary"
  | P.Simulate _ -> "simulate"
  | P.Hitting _ -> "hitting"
  | P.Sample _ -> "sample"
  | P.Stats -> "stats"

(* A stable one-line name for a query, the key of the golden file. *)
let describe = function
  | P.Mixing { game; n; beta; eps; _ } ->
      Printf.sprintf "mixing %s n=%d beta=%g eps=%g" game n beta eps
  | P.Stationary { game; n; beta } ->
      Printf.sprintf "stationary %s n=%d beta=%g" game n beta
  | P.Simulate { game; n; beta; steps; seed } ->
      Printf.sprintf "simulate %s n=%d beta=%g steps=%d seed=%d" game n beta steps seed
  | q -> kind q
