(* The named-game catalogue, shared by the CLI and the daemon so both
   resolve an id like "ring" to the exact same chain recipe. *)

type spec = {
  id : string;
  doc : string;
  build : n:int -> beta:float -> Games.Game.t * (int -> float) option;
  symmetries : n:int -> int array list;
}

let coordination_basic delta0 delta1 = Games.Coordination.of_deltas ~delta0 ~delta1

let graphical graph_of_n ~n ~beta:_ =
  let desc = Games.Graphical.create (graph_of_n n) (coordination_basic 1.0 1.0) in
  (Games.Graphical.to_game desc, Some (Games.Graphical.potential desc))

let with_potential game =
  (game, (Games.Potential.recover game :> (int -> float) option))

(* Player permutations, [rho.(i)] being the player that takes player
   i's strategy. These are the automorphisms of the social graph each
   builder uses; the engine verifies them on the built chain. *)
let rotation ~n = Array.init n (fun i -> (i + 1) mod n)
let ring_reflection ~n = Array.init n (fun i -> (n - i) mod n)
let path_reflection ~n = Array.init n (fun i -> n - 1 - i)

(* The n-cycle and the transposition (0 1) generate every permutation
   of the players. *)
let all_players ~n =
  if n < 2 then []
  else [ rotation ~n; Array.init n (fun i -> if i < 2 then 1 - i else i) ]

let no_symmetries ~n:_ = []

let all =
  [
    {
      id = "ring";
      doc = "graphical coordination on a ring (delta0 = delta1 = 1)";
      build = graphical Graphs.Generators.ring;
      symmetries = (fun ~n -> [ rotation ~n; ring_reflection ~n ]);
    };
    {
      id = "clique";
      doc = "graphical coordination on a clique (delta0 = delta1 = 1)";
      build = graphical Graphs.Generators.clique;
      symmetries = all_players;
    };
    {
      id = "path";
      doc = "graphical coordination on a path (delta0 = delta1 = 1)";
      build = graphical Graphs.Generators.path;
      symmetries = (fun ~n -> [ path_reflection ~n ]);
    };
    {
      id = "curve";
      doc = "the Theorem 3.5 lower-bound potential family (l=1, g=n/4)";
      build =
        (fun ~n ~beta:_ ->
          let global = Float.max 1. (float_of_int (n / 4)) in
          let game = Games.Curve_game.create ~players:n ~global ~local:1.0 in
          (Games.Curve_game.to_game game, Some (Games.Curve_game.potential game)));
      symmetries = all_players;
    };
    {
      id = "dominant";
      doc = "the Theorem 4.3 dominant-strategy game (m = 2)";
      build =
        (fun ~n ~beta:_ ->
          with_potential (Games.Dominant.lower_bound_game ~players:n ~strategies:2));
      symmetries = no_symmetries;
    };
    {
      id = "pd";
      doc = "prisoner's dilemma (2 players; n ignored)";
      build = (fun ~n:_ ~beta:_ -> with_potential (Games.Dominant.prisoners_dilemma ()));
      symmetries = no_symmetries;
    };
    {
      id = "matching-pennies";
      doc = "matching pennies (2 players; n ignored; not a potential game)";
      build = (fun ~n:_ ~beta:_ -> (Games.Zoo.matching_pennies, None));
      symmetries = no_symmetries;
    };
  ]

let find id = List.find_opt (fun g -> g.id = id) all
