(** Atomic file plumbing shared by the cache and by the bench
    trajectory ([Bench.History] rewrites it on every append).

    The write protocol is write-to-temp + [Sys.rename]: readers — and
    concurrent {!Exec.Pool} workers or parallel CI jobs racing on the
    same store — observe either the old file or the complete new one,
    never a torn prefix, because POSIX rename within a filesystem is
    atomic. *)

(** [write_atomic ?tmp_dir ~path contents] writes [contents] to [path]
    atomically. The temp file lives in [tmp_dir] (default: [path]'s
    directory, which guarantees same-filesystem rename) and is removed
    if anything fails before the rename. *)
val write_atomic : ?tmp_dir:string -> path:string -> string -> unit

(** [read_file path] is the whole file, or [None] if it does not exist
    or cannot be read. *)
val read_file : string -> string option

(** [mkdir_p path] creates [path] and any missing parents (0755). *)
val mkdir_p : string -> unit
