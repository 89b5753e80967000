type provenance = { rev : string; host : string; timestamp : float }

let git_rev () =
  match Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" with
  | exception _ -> "unknown"
  | ic -> (
      let line = try input_line ic with End_of_file -> "" in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 when line <> "" -> line
      | _ | (exception _) -> "unknown")

let provenance () =
  {
    rev = git_rev ();
    host = (try Unix.gethostname () with _ -> "unknown");
    (* A timestamp, not a duration: wall clock is correct here. *)
    timestamp = Common.Clock.wall_s ();
  }

let stamp p (r : Record.t) =
  { r with Record.rev = p.rev; host = p.host; timestamp = p.timestamp }

let record_run ?(history_path = History.default_path) ?provenance:prov records
    =
  let p = match prov with Some p -> p | None -> provenance () in
  let stamped = List.map (stamp p) records in
  (* History.append validates every record before it writes anything. *)
  Result.map (fun _all -> stamped) (History.append ~path:history_path stamped)
