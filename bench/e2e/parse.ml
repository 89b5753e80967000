(* Parsers for the lines of CLI output the benchmark checks. *)

type store = { hits : int; misses : int; writes : int }

let lines s = String.split_on_char '\n' s

(* [t_mix out] is the (eps, steps) of the first "t_mix(eps) = N" line. *)
let t_mix out =
  List.find_map
    (fun line ->
      try Scanf.sscanf line "t_mix(%f) = %d%!" (fun eps t -> Some (eps, t))
      with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
    (lines out)

(* [store_line line] parses "store: h hit(s), m miss(es), w write(s) in DIR". *)
let store_line line =
  try
    Scanf.sscanf line "store: %d hit(s), %d miss(es), %d write(s) in %_s@\n"
      (fun hits misses writes -> Some { hits; misses; writes })
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

(* [split_store out] is [out] without its store line, and that line's
   counts. The store line names the store directory, so it is the one
   line of output that differs between otherwise identical runs. *)
let split_store out =
  let store = ref None in
  let kept =
    List.filter
      (fun line ->
        match store_line line with
        | Some s when !store = None ->
            store := Some s;
            false
        | _ -> true)
      (lines out)
  in
  (String.concat "\n" kept, !store)
