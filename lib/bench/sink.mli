(** The single exit point for bench results. Each phase of the bench
    harness hands its records to [record_run], which stamps them with
    provenance (git revision, host, wall-clock time) and appends them
    to [BENCH_HISTORY.json]. *)

type provenance = { rev : string; host : string; timestamp : float }

(** [provenance ()] samples the current git short revision (["unknown"]
    outside a work tree), hostname and unix time. *)
val provenance : unit -> provenance

val stamp : provenance -> Record.t -> Record.t

(** [record_run ?history_path ?provenance records] validates
    [records], stamps them with [provenance] (default: sampled now)
    and appends them to [history_path] (default
    {!History.default_path}). Nothing is written if any record fails
    {!Record.validate}. Returns the appended records. *)
val record_run :
  ?history_path:string ->
  ?provenance:provenance ->
  Record.t list ->
  (Record.t list, string) result
