(** Distribution evolution over an on-disk {!Segment}.

    Presents the same [evolve_many_into] panel contract as
    {!Markov.Chain}, streaming the matrix block by block instead of
    holding it in RAM. The gather replays the in-RAM evolve kernel
    exactly — every source per destination, in ascending order, none
    skipped, summed left to right — so results are bit-identical to
    [Chain.evolve_many_into] on the same chain, serial or pooled, mmap
    or stream, signed panels included. A single distribution is a
    1-row panel.

    Pooled runs shard the block table across domains. Blocks own
    disjoint column ranges, so every destination entry has exactly
    one writer and no synchronisation is needed; [~cost] is the
    average block nnz, which routes small segments down
    {!Exec.Pool}'s serial cutover. *)

type t

(** [of_segment seg] wraps an already-open segment. The wrapper does
    not own [seg]'s lifetime beyond {!close}. *)
val of_segment : Segment.t -> t

(** [open_ ?access path] opens a segment file for evolution;
    see {!Segment.open_} for validation and failure modes. *)
val open_ : ?access:Segment.access -> string -> (t, string) result

val close : t -> unit
val segment : t -> Segment.t
val size : t -> int
val nnz : t -> int

(** [evolve_many_into ?pool t ~k ~src ~dst] advances [k] row-major
    distributions one step, streaming blocks from disk; every cell
    matches {!Markov.Chain.evolve_many_into} on the same chain bit for
    bit. Same contract (and argument checks) as that function. *)
val evolve_many_into :
  ?pool:Exec.Pool.t -> t -> k:int -> src:Markov.Chain.panel -> dst:Markov.Chain.panel -> unit

(** [kernel t] packages the panel evolve as a {!Markov.Kernel.t}, the
    hand-off that lets {!Markov.Mixing.tv_curve_kernel},
    {!Markov.Mixing.mixing_time_kernel} and
    {!Markov.Stationary.by_power_kernel} run unchanged over an
    on-disk chain. *)
val kernel : t -> Markov.Kernel.t
