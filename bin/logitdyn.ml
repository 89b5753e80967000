(* logitdyn — command-line front end.

   Subcommands:
     simulate    run a logit-dynamics trajectory on a named game
     mixing      compute the exact mixing time of a named game
     spectrum    print the spectrum of the logit chain
     experiment  run a reproduction experiment (e1..e9, x1..x10, all)
     list        list available games and experiments
     zeta        potential-barrier quantities of a game
     cutwidth    cutwidth of a topology (Thm 5.1 exponent)
     hitting     expected hitting time of the potential minimum
     anneal      compare annealing schedules
     sample      exact stationary samples via coupling from the past
     chain       pack/inspect out-of-core chain segments
     store       inspect/maintain the on-disk artifact store
     bench       performance trajectory (history, regression gate)

   The chain-building subcommands (mixing, spectrum, hitting,
   experiment) memoise their heavy artifacts — chains, stationary
   distributions, experiment tables — through the content-addressed
   store (~/.cache/logitdyn, or --store DIR); --no-cache opts out. *)

open Cmdliner
module P = Serve.Protocol

let find_game id =
  match Serve.Catalog.find id with
  | Some g -> g
  | None ->
      Printf.eprintf "unknown game %S; try `logitdyn list`\n" id;
      exit 2

(* [with_jobs jobs f] runs [f] with [Some pool] of [jobs] domains (and
   guaranteed shutdown), or with [None] for jobs <= 1. *)
let with_jobs jobs f =
  if jobs <= 1 then f None
  else Exec.Pool.with_pool ~domains:jobs (fun pool -> f (Some pool))

(* --- the artifact store ------------------------------------------------ *)

(* Every occurrence of --store / --no-cache is collected and resolved
   here: duplicates or the conflicting pair are hard usage errors
   (exit 2), not silent last-one-wins. *)
let resolve_store_or_exit ~stores ~no_cache_flags =
  match
    Serve.Cli_flags.resolve_store ~stores
      ~no_cache_count:(List.length no_cache_flags)
  with
  | Ok choice -> choice
  | Error msg ->
      Printf.eprintf "logitdyn: %s\n" msg;
      exit 2

let open_store ~stores ~no_cache_flags =
  let choice = resolve_store_or_exit ~stores ~no_cache_flags in
  if choice.Serve.Cli_flags.no_cache then None
  else
    match Store.Cas.open_ ?dir:choice.Serve.Cli_flags.dir () with
    | cas -> Some cas
    | exception Sys_error msg ->
        Printf.eprintf "warning: artifact store unavailable (%s); running uncached\n"
          msg;
        None

let report_store = function
  | None -> ()
  | Some cas ->
      let s = Store.Cas.stats cas in
      Printf.printf "store: %d hit(s), %d miss(es), %d write(s) in %s\n"
        s.Store.Cas.hits s.Store.Cas.misses s.Store.Cas.writes (Store.Cas.dir cas)

(* [entry_or_exit engine ~game ~n ~beta] is the engine's cached chain
   entry, exiting 2 with the engine's message (unknown game, oversized
   state space) on failure — the CLI's historical behaviour. *)
let entry_or_exit engine ~game ~n ~beta =
  match Serve.Engine.entry engine ~game ~n ~beta with
  | Ok e -> e
  | Error msg ->
      Printf.eprintf "%s\n" msg;
      exit 2

let print_query_error err =
  (match err with
  | P.Overloaded -> Printf.eprintf "server overloaded\n"
  | P.Deadline_exceeded -> Printf.eprintf "deadline exceeded\n"
  | P.Bad_request msg -> Printf.eprintf "%s\n" msg
  | P.Server_error msg -> Printf.eprintf "error: %s\n" msg);
  exit 2

(* --- simulate --------------------------------------------------------- *)

let simulate game_id n beta steps seed =
  let spec = find_game game_id in
  let game, potential = spec.Serve.Catalog.build ~n ~beta in
  let rng = Prob.Rng.create seed in
  let space = Games.Game.space game in
  let traj = Logit.Logit_dynamics.trajectory rng game ~beta ~start:0 ~steps in
  Printf.printf "# %s, n=%d, beta=%g, %d steps (showing every %d)\n"
    (Games.Game.name game) n beta steps
    (Int.max 1 (steps / 20));
  let stride = Int.max 1 (steps / 20) in
  Array.iteri
    (fun t idx ->
      if t mod stride = 0 then begin
        let profile = Games.Strategy_space.decode space idx in
        let phi_cell =
          match potential with
          | Some phi -> Printf.sprintf "  Phi=%8.3f" (phi idx)
          | None -> ""
        in
        Printf.printf "t=%6d  x=%s%s  welfare=%.3f\n" t
          (Format.asprintf "%a" Games.Strategy_space.pp_profile profile)
          phi_cell
          (Games.Game.social_welfare game idx)
      end)
    traj;
  0

(* --- mixing ----------------------------------------------------------- *)

(* Recipe key for a packed segment: every input that changes the bits
   — game, size, β, on-disk layout version — is a field, so a layout
   bump orphans old segments instead of misreading them. *)
let segment_key ~game ~n ~beta =
  Store.Key.v ~kind:"segment"
    [
      ("game", game);
      ("n", string_of_int n);
      ("beta", Store.Key.float_field beta);
      ("layout", string_of_int Ooc.Segment.layout_version);
    ]

(* The out-of-core mixing path: stream the chain from (or to) a
   segment file instead of materialising it, lifting the in-RAM
   state-space ceiling. π comes from the power method and t_mix from
   the same panel sweep as the in-RAM path, both running over the
   segmented kernel — bit-identical results wherever both paths fit. *)
let mixing_ooc game_id n beta eps jobs segment_file stores no_cache_flags =
  let spec = find_game game_id in
  let game, _potential = spec.Serve.Catalog.build ~n ~beta in
  let size = Games.Game.size game in
  let store = open_store ~stores ~no_cache_flags in
  let tmp = ref None in
  let path =
    match segment_file with
    | Some p -> p
    | None -> (
        match store with
        | Some cas ->
            Store.Cas.segment_path cas (segment_key ~game:game_id ~n ~beta)
        | None ->
            let p =
              Filename.concat (Filename.get_temp_dir_name ())
                (Printf.sprintf "logitdyn-%d.seg" (Unix.getpid ()))
            in
            tmp := Some p;
            p)
  in
  if not (Sys.file_exists path) then begin
    let row i = Logit.Logit_dynamics.transition_row game ~beta i in
    let info = Ooc.Segment.pack ~path ~size ~row () in
    Printf.printf "packed %d state(s), %d transition(s) into %d block(s) (%d bytes)\n"
      info.Ooc.Segment.b_n info.b_nnz info.b_blocks info.b_bytes
  end;
  let finally () =
    match !tmp with
    | Some p -> ( try Sys.remove p with Sys_error _ -> ())
    | None -> ()
  in
  Fun.protect ~finally @@ fun () ->
  match Ooc.Segmented_chain.open_ path with
  | Error msg ->
      Printf.eprintf "cannot open segment %s: %s\n" path msg;
      exit 2
  | Ok sc ->
      Fun.protect ~finally:(fun () -> Ooc.Segmented_chain.close sc) @@ fun () ->
      if Ooc.Segmented_chain.size sc <> size then begin
        Printf.eprintf "segment %s holds %d state(s) but %s with n=%d has %d\n"
          path (Ooc.Segmented_chain.size sc) game_id n size;
        exit 2
      end;
      with_jobs jobs @@ fun pool ->
      let kernel = Ooc.Segmented_chain.kernel sc in
      let pi = Markov.Stationary.by_power_kernel ?pool kernel in
      let tmix =
        Markov.Mixing.mixing_time_kernel ?pool ~eps kernel pi ~starts:[ 0 ]
      in
      Printf.printf "game=%s n=%d |S|=%d beta=%g (out-of-core: %d block(s) in %s)\n"
        (Games.Game.name game) n size beta
        (Ooc.Segment.num_blocks (Ooc.Segmented_chain.segment sc))
        path;
      (match tmix with
      | Some t -> Printf.printf "t_mix(%g) = %d\n" eps t
      | None -> Printf.printf "t_mix(%g) > max_steps\n" eps);
      report_store store;
      0

(* The one per-point print block, shared by the single-β path and the
   --betas grid so a grid point's output is byte-identical to a
   separate --beta invocation at that value. *)
let print_mixing_reply engine ~game_id ~n ~beta ~eps ~replicas
    (m : P.mixing_reply) =
  let e = entry_or_exit engine ~game:game_id ~n ~beta in
  Printf.printf "game=%s n=%d |S|=%d beta=%g reversible=%b\n"
    (Games.Game.name e.Serve.Engine.game)
    n m.P.size beta m.P.reversible;
  (match m.P.tmix with
  | Some t -> Printf.printf "t_mix(%g) = %d\n" eps t
  | None -> Printf.printf "t_mix(%g) > max_steps\n" eps);
  (match m.P.empirical with
  | Some (steps, tv) ->
      Printf.printf "empirical TV at t=%d from start 0 (%d replicas): %.4f\n"
        steps replicas tv
  | None -> ());
  match m.P.barrier with
  | Some b ->
      Printf.printf "dPhi = %g, dphi(local) = %g, zeta = %g\n" b.P.d_global
        b.P.d_local b.P.zeta
  | None -> ()

(* A thin client of the shared request layer: the same Mixing query
   the daemon serves, evaluated in-process by the same engine, so the
   CLI's answers are bit-identical to logitdynd's by construction. *)
let mixing_in_ram game_id n beta eps jobs replicas seed stores no_cache_flags =
  let store = open_store ~stores ~no_cache_flags in
  with_jobs jobs @@ fun pool ->
  let engine = Serve.Engine.create ?pool ?store () in
  match
    Serve.Engine.eval engine
      (P.Mixing { game = game_id; n; beta; eps; replicas; seed })
  with
  | Error err -> print_query_error err
  | Ok (P.Mixing_r m) ->
      print_mixing_reply engine ~game_id ~n ~beta ~eps ~replicas m;
      report_store store;
      0
  | Ok _ ->
      Printf.eprintf "unexpected reply to a mixing query\n";
      exit 2

(* The --betas grid: one process, one engine, one scheduler batch. The
   whole grid goes through Serve.Scheduler.run_batch, whose (game, n)
   coalescing turns it into ONE Markov.Family driven by the fused
   multi-β panel sweep — each point's answer bit-identical to a
   separate --beta invocation (same primitives, same floats), printed
   in grid order with the same per-point block. Only the store report
   differs: one aggregated line at the end instead of one per
   invocation. *)
let mixing_grid game_id n betas eps jobs replicas seed stores no_cache_flags =
  let store = open_store ~stores ~no_cache_flags in
  with_jobs jobs @@ fun pool ->
  let engine = Serve.Engine.create ?pool ?store () in
  let batch =
    List.mapi
      (fun i beta ->
        {
          Serve.Scheduler.tag = ();
          req_id = i;
          deadline_ns = None;
          query = P.Mixing { game = game_id; n; beta; eps; replicas; seed };
        })
      betas
  in
  let replies =
    Serve.Scheduler.run_batch engine (Serve.Scheduler.stats_zero ()) batch
  in
  List.iter
    (fun (job, outcome) ->
      let beta =
        match job.Serve.Scheduler.query with
        | P.Mixing { beta; _ } -> beta
        | _ -> assert false (* the batch holds only Mixing queries *)
      in
      match outcome with
      | Error err -> print_query_error err
      | Ok (P.Mixing_r m) ->
          print_mixing_reply engine ~game_id ~n ~beta ~eps ~replicas m
      | Ok _ ->
          Printf.eprintf "unexpected reply to a mixing query\n";
          exit 2)
    replies;
  report_store store;
  0

(* [--segment FILE] implies the out-of-core path; [--ooc] alone
   derives the file from the store (or a temp file under
   [--no-cache]). [--betas LO:HI:STEP] runs the whole grid in one
   process through the β-family scheduler path; combining it with
   [--beta] or the out-of-core flags is a usage error (exit 2). *)
let mixing game_id n beta betas eps jobs replicas seed ooc segment_file stores
    no_cache_flags =
  match Serve.Cli_flags.resolve_betas ~beta ~betas with
  | Error msg ->
      Printf.eprintf "logitdyn: %s\n" msg;
      exit 2
  | Ok (Serve.Cli_flags.Beta_single beta) ->
      if ooc || segment_file <> None then
        mixing_ooc game_id n beta eps jobs segment_file stores no_cache_flags
      else mixing_in_ram game_id n beta eps jobs replicas seed stores no_cache_flags
  | Ok (Serve.Cli_flags.Beta_grid points) ->
      if ooc || segment_file <> None then begin
        Printf.eprintf
          "logitdyn: --betas is incompatible with --ooc/--segment (the grid \
           path is in-RAM)\n";
        exit 2
      end
      else mixing_grid game_id n points eps jobs replicas seed stores no_cache_flags

(* --- spectrum --------------------------------------------------------- *)

let spectrum game_id n beta count stores no_cache_flags =
  let store = open_store ~stores ~no_cache_flags in
  let engine = Serve.Engine.create ?store () in
  let e = entry_or_exit engine ~game:game_id ~n ~beta in
  let size = Games.Game.size e.Serve.Engine.game in
  if size > 2048 then begin
    Printf.eprintf "state space too large (%d) for dense spectra; reduce n\n" size;
    exit 2
  end;
  let chain = e.Serve.Engine.chain and pi = e.Serve.Engine.pi in
  if e.Serve.Engine.reversible then begin
    let values = Markov.Spectral.spectrum chain pi in
    Printf.printf "reversible chain; top eigenvalues:\n";
    Array.iteri
      (fun i v -> if i < count then Printf.printf "  lambda_%d = %.8f\n" (i + 1) v)
      values;
    Printf.printf "relaxation time = %.4f\n"
      (Markov.Spectral.relaxation_time chain pi)
  end
  else begin
    let values = Linalg.Eigen.general_spectrum (Markov.Chain.to_dense chain) in
    Printf.printf "non-reversible chain; top eigenvalues (re, im):\n";
    Array.iteri
      (fun i (re, im) ->
        if i < count then Printf.printf "  lambda_%d = %.8f %+.8fi\n" (i + 1) re im)
      values
  end;
  report_store store;
  0

(* --- experiment -------------------------------------------------------- *)

let experiment id quick jobs stores no_cache_flags =
  Experiments.Sweep.set_jobs jobs;
  let store = open_store ~stores ~no_cache_flags in
  if String.lowercase_ascii id = "all" then begin
    Experiments.Registry.run_all ?store ~quick ();
    report_store store;
    0
  end
  else
    match Experiments.Registry.find id with
    | e ->
        Experiments.Registry.run_one ?store ~quick e;
        report_store store;
        0
    | exception Not_found ->
        Printf.eprintf "unknown experiment %S; try `logitdyn list`\n" id;
        exit 2

(* --- zeta --------------------------------------------------------------- *)

let zeta game_id n =
  let spec = find_game game_id in
  let game, potential = spec.Serve.Catalog.build ~n ~beta:1.0 in
  match potential with
  | None ->
      Printf.eprintf "game %S is not a potential game; zeta is undefined\n" game_id;
      exit 2
  | Some phi ->
      let space = Games.Game.space game in
      if Games.Strategy_space.size space > 1 lsl 20 then begin
        Printf.eprintf "state space too large; reduce n\n";
        exit 2
      end;
      Printf.printf "game=%s n=%d\n" (Games.Game.name game) n;
      Printf.printf "dPhi (global variation) = %g\n"
        (Games.Potential.delta_global space phi);
      Printf.printf "dphi (local variation)  = %g\n"
        (Games.Potential.delta_local space phi);
      Printf.printf "zeta (barrier)          = %g\n" (Logit.Barrier.zeta space phi);
      Printf.printf
        "Thms 3.8/3.9: log t_mix ~ beta * zeta for large beta; Thm 3.4 bound \
         exponent is beta * dPhi.\n";
      0

(* --- cutwidth ------------------------------------------------------------ *)

let cutwidth_cmd_impl kind n =
  let graph =
    match kind with
    | "ring" -> Graphs.Generators.ring n
    | "path" -> Graphs.Generators.path n
    | "clique" -> Graphs.Generators.clique n
    | "star" -> Graphs.Generators.star n
    | "tree" -> Graphs.Generators.binary_tree n
    | "grid" -> Graphs.Generators.grid 2 (n / 2)
    | other ->
        Printf.eprintf "unknown graph kind %S\n" other;
        exit 2
  in
  if n <= 20 then begin
    let chi, order = Graphs.Cutwidth.exact_with_ordering graph in
    Printf.printf "%s(%d): cutwidth = %d (exact)\n" kind n chi;
    Printf.printf "optimal ordering: %s\n"
      (String.concat " " (Array.to_list (Array.map string_of_int order)))
  end
  else
    Printf.printf "%s(%d): cutwidth <= %d (local-search upper bound)\n" kind n
      (Graphs.Cutwidth.heuristic graph);
  0

(* --- hitting -------------------------------------------------------------- *)

let hitting game_id n beta jobs stores no_cache_flags =
  let store = open_store ~stores ~no_cache_flags in
  with_jobs jobs @@ fun pool ->
  let engine = Serve.Engine.create ?pool ?store () in
  match Serve.Engine.eval engine (P.Hitting { game = game_id; n; beta }) with
  | Error err -> print_query_error err
  | Ok (P.Hitting_r h) ->
      let e = entry_or_exit engine ~game:game_id ~n ~beta in
      Printf.printf "game=%s n=%d beta=%g\n"
        (Games.Game.name e.Serve.Engine.game)
        n beta;
      Printf.printf "potential minimiser: profile %d (Phi = %g)\n" h.P.argmin
        h.P.phi_min;
      Printf.printf "worst-case expected hitting time of the minimum: %.4g\n"
        h.P.worst_hitting;
      (match h.P.hit_tmix with
      | Some t ->
          Printf.printf "mixing time (same chain):                  %d\n" t
      | None -> Printf.printf "mixing time (same chain):                  >2e6\n");
      report_store store;
      0
  | Ok _ ->
      Printf.eprintf "unexpected reply to a hitting query\n";
      exit 2

(* --- anneal --------------------------------------------------------------- *)

let anneal game_id n steps seed =
  let spec = find_game game_id in
  let game, potential = spec.Serve.Catalog.build ~n ~beta:1.0 in
  match potential with
  | None ->
      Printf.eprintf "annealing quality is measured on the potential; %S has none\n"
        game_id;
      exit 2
  | Some phi ->
      let rng = Prob.Rng.create seed in
      Printf.printf "game=%s n=%d, %d steps per run, 200 replicas\n"
        (Games.Game.name game) n steps;
      Printf.printf "%-28s  %14s\n" "schedule" "mean final Phi";
      List.iter
        (fun schedule ->
          let quality =
            Logit.Annealing.final_potential rng game phi schedule ~start:0
              ~steps ~replicas:200
          in
          Printf.printf "%-28s  %14.4f\n"
            (Format.asprintf "%a" Logit.Annealing.pp_schedule schedule)
            quality)
        [
          Logit.Annealing.Constant 0.2;
          Logit.Annealing.Constant 5.0;
          Logit.Annealing.Linear { start = 0.; rate = 5. /. float_of_int steps };
          Logit.Annealing.Logarithmic { scale = 1. };
        ];
      0

(* --- sample (CFTP) -------------------------------------------------------- *)

let sample_cmd_impl game_id n beta count seed =
  let spec = find_game game_id in
  let game, potential = spec.Serve.Catalog.build ~n ~beta in
  let space = Games.Game.space game in
  let binary =
    List.init (Games.Strategy_space.num_players space) (fun i ->
        Games.Strategy_space.num_strategies space i)
    |> List.for_all (( = ) 2)
  in
  if not binary then begin
    Printf.eprintf "CFTP requires binary strategies; %S has more\n" game_id;
    exit 2
  end;
  let rng = Prob.Rng.create seed in
  Printf.printf
    "# %d exact stationary samples (coupling from the past), beta=%g\n"
    count beta;
  let emp = Prob.Empirical.create (Games.Game.size game) in
  let max_window = ref 0 in
  for k = 1 to count do
    let x, window = Logit.Perfect_sampling.coalescence_epoch rng game ~beta in
    Prob.Empirical.add emp x;
    if window > !max_window then max_window := window;
    if k <= 10 then
      Printf.printf "sample %2d: %s  (window %d)\n" k
        (Format.asprintf "%a" Games.Strategy_space.pp_profile
           (Games.Strategy_space.decode space x))
        window
  done;
  Printf.printf "max backward window: %d steps\n" !max_window;
  (match potential with
  | Some phi when Games.Game.size game <= 1 lsl 16 ->
      let pi = Logit.Gibbs.stationary space phi ~beta in
      Printf.printf "TV(empirical, exact Gibbs) = %.4f over %d samples\n"
        (Prob.Empirical.tv_against emp (Prob.Dist.of_weights pi))
        count
  | _ -> ());
  0

(* --- chain (out-of-core segments) ---------------------------------------- *)

let chain_pack game_id n beta out block_nnz stores no_cache_flags =
  let spec = find_game game_id in
  let game, _potential = spec.Serve.Catalog.build ~n ~beta in
  let size = Games.Game.size game in
  let path =
    match out with
    | Some p -> p
    | None -> (
        match open_store ~stores ~no_cache_flags with
        | Some cas ->
            Store.Cas.segment_path cas (segment_key ~game:game_id ~n ~beta)
        | None ->
            Printf.eprintf
              "chain pack: no --out given and the artifact store is disabled\n";
            exit 2)
  in
  let row i = Logit.Logit_dynamics.transition_row game ~beta i in
  let info = Ooc.Segment.pack ?block_nnz ~path ~size ~row () in
  Printf.printf "packed %s\n" path;
  Printf.printf "states=%d transitions=%d blocks=%d bytes=%d layout=v%d\n"
    info.Ooc.Segment.b_n info.b_nnz info.b_blocks info.b_bytes
    Ooc.Segment.layout_version;
  0

(* Info and verify open in stream mode: header-only validation, no
   mapping — cheap even on multi-gigabyte segments. *)
let chain_info file =
  match Ooc.Segment.open_ ~access:Ooc.Segment.Stream file with
  | Error msg ->
      Printf.eprintf "%s: %s\n" file msg;
      exit 2
  | Ok seg ->
      Fun.protect ~finally:(fun () -> Ooc.Segment.close seg) @@ fun () ->
      Printf.printf "%s\n" file;
      Printf.printf "states=%d transitions=%d blocks=%d bytes=%d layout=v%d\n"
        (Ooc.Segment.size seg) (Ooc.Segment.nnz seg)
        (Ooc.Segment.num_blocks seg)
        (Ooc.Segment.file_bytes seg)
        Ooc.Segment.layout_version;
      0

let chain_verify file =
  match Ooc.Segment.open_ ~access:Ooc.Segment.Stream file with
  | Error msg ->
      Printf.eprintf "%s: %s\n" file msg;
      exit 2
  | Ok seg -> (
      Fun.protect ~finally:(fun () -> Ooc.Segment.close seg) @@ fun () ->
      match Ooc.Segment.verify seg with
      | Ok () ->
          Printf.printf "%s: %d block(s) OK\n" file (Ooc.Segment.num_blocks seg);
          0
      | Error msgs ->
          List.iter (fun m -> Printf.printf "CORRUPT %s\n" m) msgs;
          Printf.printf "%s: %d corrupt block(s) of %d\n" file (List.length msgs)
            (Ooc.Segment.num_blocks seg);
          1)

(* --- store -------------------------------------------------------------- *)

let human_age seconds =
  if seconds < 90. then Printf.sprintf "%.0fs" seconds
  else if seconds < 5400. then Printf.sprintf "%.0fm" (seconds /. 60.)
  else if seconds < 129600. then Printf.sprintf "%.1fh" (seconds /. 3600.)
  else Printf.sprintf "%.1fd" (seconds /. 86400.)

let store_cmd_impl action stores max_age_days max_bytes =
  let choice = resolve_store_or_exit ~stores ~no_cache_flags:[] in
  match Store.Cas.open_ ?dir:choice.Serve.Cli_flags.dir () with
  | exception Sys_error msg ->
      Printf.eprintf "cannot open artifact store: %s\n" msg;
      exit 2
  | cas -> (
      match action with
      | "ls" ->
          (* Ages are wall-clock mtime differences, not durations. *)
          let now = Common.Clock.wall_s () in
          let entries = Store.Cas.verify cas in
          Printf.printf "%-32s  %-17s  %10s  %6s\n" "digest" "kind" "bytes" "age";
          List.iter
            (fun ((e : Store.Cas.entry), status) ->
              let kind =
                match status with
                | Ok k -> Store.Codec.kind_name k
                | Error _ -> "CORRUPT"
              in
              Printf.printf "%-32s  %-17s  %10d  %6s\n" e.digest kind e.size
                (human_age (now -. e.mtime)))
            entries;
          let total =
            List.fold_left
              (fun acc ((e : Store.Cas.entry), _) -> acc + e.size)
              0 entries
          in
          Printf.printf "%d object(s), %d byte(s) in %s\n" (List.length entries)
            total (Store.Cas.dir cas);
          0
      | "verify" ->
          let entries = Store.Cas.verify cas in
          let bad =
            List.filter (fun (_, status) -> Result.is_error status) entries
          in
          List.iter
            (fun ((e : Store.Cas.entry), status) ->
              match status with
              | Ok _ -> ()
              | Error reason -> Printf.printf "CORRUPT %s: %s\n" e.digest reason)
            bad;
          Printf.printf "%d object(s) checked, %d corrupt\n"
            (List.length entries) (List.length bad);
          if List.length bad = 0 then 0 else 1
      | "gc" ->
          let removed, bytes =
            Store.Cas.gc ?max_bytes cas ~older_than:(max_age_days *. 86400.)
          in
          let cap_note =
            match max_bytes with
            | None -> ""
            | Some cap -> Printf.sprintf ", capped the rest at %d byte(s)" cap
          in
          Printf.printf "gc: removed %d object(s), %d byte(s) older than %g day(s)%s\n"
            removed bytes max_age_days cap_note;
          0
      | "clear" ->
          let removed = Store.Cas.clear cas in
          Printf.printf "cleared %d object(s) from %s\n" removed (Store.Cas.dir cas);
          0
      | other ->
          Printf.eprintf "unknown store action %S (expected ls|gc|verify|clear)\n"
            other;
          exit 2)

(* --- bench -------------------------------------------------------------- *)

let bench_history_path_arg =
  Arg.(
    value
    & opt string Bench.History.default_path
    & info [ "history" ] ~docv:"FILE" ~doc:"Trajectory file to operate on.")

let bench_cmd =
  let history_cmd =
    Cmd.v
      (Cmd.info "history" ~doc:"Print the performance trajectory")
      Term.(
        const (fun path -> Bench.Cli.history ~path ()) $ bench_history_path_arg)
  in
  let compare_cmd =
    let baseline_arg =
      Arg.(
        required
        & opt (some string) None
        & info [ "baseline" ] ~docv:"FILE" ~doc:"Baseline trajectory file.")
    in
    let candidate_arg =
      Arg.(
        value
        & opt string Bench.History.default_path
        & info [ "candidate" ] ~docv:"FILE"
            ~doc:"Candidate trajectory file (default: the working tree's).")
    in
    let threshold_arg =
      Arg.(
        value
        & opt float Bench.Cli.default_threshold
        & info [ "threshold" ] ~docv:"PCT"
            ~doc:
              "Allowed slowdown in percent: an arm exactly $(docv) percent \
               slower than baseline still passes, strictly beyond fails.")
    in
    let strict_arg =
      Arg.(
        value & flag
        & info [ "strict" ]
            ~doc:"Also fail when a baseline workload disappears.")
    in
    Cmd.v
      (Cmd.info "compare"
         ~doc:"Gate the candidate trajectory against a baseline")
      Term.(
        const (fun strict threshold baseline candidate ->
            Bench.Cli.compare ~strict ~threshold ~baseline ~candidate ())
        $ strict_arg $ threshold_arg $ baseline_arg $ candidate_arg)
  in
  Cmd.group
    (Cmd.info "bench" ~doc:"Performance trajectory and regression gate")
    [ history_cmd; compare_cmd ]

(* --- list --------------------------------------------------------------- *)

let list_all () =
  Printf.printf "games:\n";
  List.iter
    (fun g ->
      Printf.printf "  %-18s %s\n" g.Serve.Catalog.id g.Serve.Catalog.doc)
    Serve.Catalog.all;
  Printf.printf "\nexperiments:\n";
  List.iter
    (fun e ->
      Printf.printf "  %-4s %-24s %s\n" e.Experiments.Registry.id
        e.Experiments.Registry.theorem e.Experiments.Registry.title)
    Experiments.Registry.all;
  0

(* --- cmdliner wiring ----------------------------------------------------- *)

let game_arg =
  Arg.(value & pos 0 string "ring" & info [] ~docv:"GAME" ~doc:"Game id (see list).")

let n_arg =
  Arg.(value & opt int 6 & info [ "n"; "players" ] ~docv:"N" ~doc:"Number of players.")

let beta_arg =
  Arg.(value & opt float 1.0 & info [ "b"; "beta" ] ~docv:"BETA" ~doc:"Inverse noise.")

let seed_arg = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let steps_arg =
  Arg.(value & opt int 200 & info [ "steps" ] ~docv:"T" ~doc:"Trajectory length.")

let eps_arg =
  Arg.(value & opt float 0.25 & info [ "eps" ] ~docv:"EPS" ~doc:"TV threshold.")

let count_arg =
  Arg.(value & opt int 10 & info [ "top" ] ~docv:"K" ~doc:"Eigenvalues to print.")

let quick_arg =
  Arg.(value & flag & info [ "quick" ] ~doc:"Shrink experiment sweeps.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Number of domains for the parallel kernels (1 = serial). Results \
           are identical for every value; only the wall-clock changes.")

(* Collected with opt_all/flag_all so duplicates and the conflicting
   pair surface as hard usage errors (via Serve.Cli_flags) instead of
   silent last-one-wins. *)
let store_dir_arg =
  Arg.(
    value & opt_all string []
    & info [ "store" ] ~docv:"DIR"
        ~doc:
          "Artifact store directory (default: \\$XDG_CACHE_HOME/logitdyn, \
           falling back to ~/.cache/logitdyn). Conflicts with --no-cache; \
           repeating it is an error.")

let no_cache_arg =
  Arg.(
    value & flag_all
    & info [ "no-cache" ]
        ~doc:
          "Disable the on-disk artifact store: compute everything afresh. \
           Conflicts with --store.")

let simulate_cmd =
  Cmd.v (Cmd.info "simulate" ~doc:"Simulate a logit-dynamics trajectory")
    Term.(const simulate $ game_arg $ n_arg $ beta_arg $ steps_arg $ seed_arg)

let mixing_cmd =
  let replicas_arg =
    Arg.(
      value & opt int 0
      & info [ "empirical" ] ~docv:"REPLICAS"
          ~doc:
            "Also estimate the TV distance at the computed mixing time by \
             Monte Carlo with $(docv) simulated chains (0 = skip).")
  in
  let ooc_arg =
    Arg.(
      value & flag
      & info [ "ooc" ]
          ~doc:
            "Stream the chain from an on-disk segment instead of holding it \
             in RAM — lifts the in-RAM state-space ceiling. Results are \
             bit-identical to the in-RAM path wherever both fit.")
  in
  let segment_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "segment" ] ~docv:"FILE"
          ~doc:
            "Segment file to stream from (implies --ooc); packed on demand \
             when absent. Default: derived from the game recipe in the \
             artifact store.")
  in
  let beta_opt_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "b"; "beta" ] ~docv:"BETA"
          ~doc:"Inverse noise (default 1.0). Conflicts with --betas.")
  in
  let betas_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "betas" ] ~docv:"LO:HI:STEP"
          ~doc:
            "Run a whole inclusive β grid in one process: the chains are \
             built as one β-family (utilities tabulated once, shared index \
             structure) and settled by one fused panel sweep. Each point's \
             output is byte-identical to a separate --beta run at that \
             value. Conflicts with --beta, --ooc and --segment.")
  in
  Cmd.v (Cmd.info "mixing" ~doc:"Compute the exact mixing time")
    Term.(
      const mixing $ game_arg $ n_arg $ beta_opt_arg $ betas_arg $ eps_arg
      $ jobs_arg $ replicas_arg $ seed_arg $ ooc_arg $ segment_arg
      $ store_dir_arg $ no_cache_arg)

let spectrum_cmd =
  Cmd.v (Cmd.info "spectrum" ~doc:"Print the spectrum of the logit chain")
    Term.(
      const spectrum $ game_arg $ n_arg $ beta_arg $ count_arg $ store_dir_arg
      $ no_cache_arg)

let experiment_cmd =
  let id_arg =
    Arg.(value & pos 0 string "all" & info [] ~docv:"ID" ~doc:"e1..e9 or all.")
  in
  Cmd.v (Cmd.info "experiment" ~doc:"Run a reproduction experiment")
    Term.(
      const experiment $ id_arg $ quick_arg $ jobs_arg $ store_dir_arg
      $ no_cache_arg)

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List available games and experiments")
    Term.(const list_all $ const ())

let zeta_cmd =
  Cmd.v (Cmd.info "zeta" ~doc:"Compute the potential barrier of a game")
    Term.(const zeta $ game_arg $ n_arg)

let cutwidth_cmd =
  let kind_arg =
    Arg.(value & pos 0 string "ring" & info [] ~docv:"GRAPH"
           ~doc:"ring|path|clique|star|tree|grid")
  in
  Cmd.v (Cmd.info "cutwidth" ~doc:"Cutwidth of a topology (Thm 5.1 exponent)")
    Term.(const cutwidth_cmd_impl $ kind_arg $ n_arg)

let hitting_cmd =
  Cmd.v
    (Cmd.info "hitting" ~doc:"Expected hitting time of the potential minimum")
    Term.(
      const hitting $ game_arg $ n_arg $ beta_arg $ jobs_arg $ store_dir_arg
      $ no_cache_arg)

let store_cmd =
  let action_arg =
    Arg.(
      value & pos 0 string "ls"
      & info [] ~docv:"ACTION" ~doc:"ls | gc | verify | clear")
  in
  let max_age_arg =
    Arg.(
      value & opt float 30.
      & info [ "max-age" ] ~docv:"DAYS"
          ~doc:"gc: delete objects last written more than $(docv) days ago.")
  in
  let max_bytes_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-bytes" ] ~docv:"BYTES"
          ~doc:
            "gc: after the age sweep, keep evicting least-recently-written \
             objects until at most $(docv) bytes remain.")
  in
  Cmd.v
    (Cmd.info "store" ~doc:"Inspect and maintain the on-disk artifact store")
    Term.(
      const store_cmd_impl $ action_arg $ store_dir_arg $ max_age_arg
      $ max_bytes_arg)

let chain_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Segment file.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:
            "Write the segment here. Default: the recipe-derived path inside \
             the artifact store.")
  in
  let block_nnz_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "block-nnz" ] ~docv:"K"
          ~doc:"Stored transitions per block (build memory and stream unit).")
  in
  let pack_cmd =
    Cmd.v
      (Cmd.info "pack"
         ~doc:"Stream a game's chain into an on-disk segment file")
      Term.(
        const chain_pack $ game_arg $ n_arg $ beta_arg $ out_arg
        $ block_nnz_arg $ store_dir_arg $ no_cache_arg)
  in
  let info_cmd =
    Cmd.v (Cmd.info "info" ~doc:"Print a segment file's header")
      Term.(const chain_info $ file_arg)
  in
  let verify_cmd =
    Cmd.v
      (Cmd.info "verify" ~doc:"Recompute every block CRC of a segment file")
      Term.(const chain_verify $ file_arg)
  in
  Cmd.group
    (Cmd.info "chain" ~doc:"Pack and inspect out-of-core chain segments")
    [ pack_cmd; info_cmd; verify_cmd ]

let sample_cmd =
  let count_arg =
    Arg.(value & opt int 1000 & info [ "count" ] ~docv:"K" ~doc:"Samples to draw.")
  in
  Cmd.v
    (Cmd.info "sample" ~doc:"Exact stationary samples via coupling from the past")
    Term.(const sample_cmd_impl $ game_arg $ n_arg $ beta_arg $ count_arg $ seed_arg)

let anneal_cmd =
  let anneal_steps =
    Arg.(value & opt int 2000 & info [ "steps" ] ~docv:"T" ~doc:"Steps per run.")
  in
  Cmd.v (Cmd.info "anneal" ~doc:"Compare annealing schedules on a game")
    Term.(const anneal $ game_arg $ n_arg $ anneal_steps $ seed_arg)

let () =
  let doc = "mixing-time toolkit for the logit dynamics of strategic games" in
  let info = Cmd.info "logitdyn" ~version:"1.0.0" ~doc in
  exit (Cmd.eval' (Cmd.group info
       [ simulate_cmd; mixing_cmd; spectrum_cmd; experiment_cmd; list_cmd;
         zeta_cmd; cutwidth_cmd; hitting_cmd; anneal_cmd; sample_cmd;
         chain_cmd; store_cmd; bench_cmd ]))
