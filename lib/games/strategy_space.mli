(** The profile space S = S₁ × ... × Sₙ of a strategic game.

    A profile is an [int array] of length [n] whose [i]-th entry is
    the strategy of player [i], in [{0, ..., counts.(i) - 1}]. Profiles
    are also indexed by integers in [{0, ..., size-1}] through a
    mixed-radix encoding, which is how the Markov-chain substrate
    addresses states. The encoding is little-endian in the player
    index: player 0 is the fastest-varying digit. *)

type t

type profile = int array

(** [create counts] is the space with [counts.(i)] strategies for
    player [i]. Every count must be at least 1 and the total size must
    fit in an [int]; raises [Invalid_argument] otherwise. *)
val create : int array -> t

(** [uniform ~players ~strategies] is the space of [players] players
    with [strategies] strategies each. *)
val uniform : players:int -> strategies:int -> t

(** [num_players s] is n. *)
val num_players : t -> int

(** [num_strategies s i] is |S_i|. *)
val num_strategies : t -> int -> int

(** [max_strategies s] is m = max_i |S_i|. *)
val max_strategies : t -> int

(** [size s] is |S| = Π_i |S_i|. *)
val size : t -> int

(** [encode s p] is the index of profile [p].
    Raises [Invalid_argument] on out-of-range entries. *)
val encode : t -> profile -> int

(** [decode s idx] is the profile with index [idx] (fresh array). *)
val decode : t -> int -> profile

(** [player_strategy s idx i] is the strategy of player [i] in the
    profile with index [idx], without materialising the profile. *)
val player_strategy : t -> int -> int -> int

(** [replace s idx i a] is the index of the profile obtained from
    profile [idx] by setting player [i]'s strategy to [a] — the
    [(a, x₋ᵢ)] operation of the paper, in index space. *)
val replace : t -> int -> int -> int -> int

(** [permute_players s rho] is the permutation of profile indices that
    hands player [i]'s strategy to player [rho.(i)]: the profile [x]
    maps to the profile [y] with [y.(rho.(i)) = x.(i)]. [None] when
    [rho] is not a permutation of the players or sends a player to one
    with a different number of strategies. *)
val permute_players : t -> int array -> int array option

(** [swap_strategies s] is the permutation of profile indices that
    relabels strategy 0 as 1 and 1 as 0 for every player; [None]
    unless every player has exactly two strategies. *)
val swap_strategies : t -> int array option

(** [iter s f] applies [f] to every profile index in increasing
    order. *)
val iter : t -> (int -> unit) -> unit

(** [iter_profiles s f] applies [f idx p] to every profile; the array
    [p] is reused between calls and must not be stowed away. *)
val iter_profiles : t -> (int -> profile -> unit) -> unit

(** [neighbors s idx] lists the indices of profiles at Hamming
    distance one from [idx] (the Hamming-graph neighbourhood). *)
val neighbors : t -> int -> int list

(** [hamming_distance s a b] is the number of players whose strategy
    differs between profiles [a] and [b]. *)
val hamming_distance : t -> int -> int -> int

(** [weight s idx] is the number of players playing a non-zero
    strategy — w(x) of the paper for binary games. *)
val weight : t -> int -> int

(** [pp_profile] prints a profile as [(s₀, s₁, ...)]. *)
val pp_profile : Format.formatter -> profile -> unit
