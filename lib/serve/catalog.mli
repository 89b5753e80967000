(** The named-game catalogue.

    One table maps a stable game id ("ring", "clique", ...) to its
    builder; the CLI, the daemon and the load bench all resolve ids
    here, so a chain recipe means the same thing to every front end —
    which is what lets the daemon's warm cache serve CLI-built
    artifacts and vice versa. *)

type spec = {
  id : string;  (** stable identifier, also the chain-recipe key *)
  doc : string;  (** one-line description for [logitdyn list] *)
  build : n:int -> beta:float -> Games.Game.t * (int -> float) option;
      (** builds the game and, when it is (or recovers as) a potential
          game, its potential function over encoded profiles *)
  symmetries : n:int -> int array list;
      (** the player permutations the game is built to be invariant
          under, for [n] players: [rho.(i)] is the player that takes
          player [i]'s strategy. Ring: rotation by one and reflection;
          path: reflection; clique and curve: the n-cycle and the
          transposition (0 1); the others: none. They are candidates
          only. {!Engine} lifts each to the profile indices
          ({!Games.Strategy_space.permute_players}) and uses it only
          once {!Markov.Symmetry.verify} accepts it on the built
          chain. *)
}

(** Every named game, in listing order. *)
val all : spec list

(** [find id] is the spec registered under [id], if any. *)
val find : string -> spec option
