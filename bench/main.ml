(* Benchmark harness.

   Phase 1 regenerates every experiment table of DESIGN.md /
   EXPERIMENTS.md (the paper has no numeric tables of its own; the
   theorem-indexed experiments E1..E9 play that role).

   Phase 2 runs Bechamel micro-benchmarks of the hot kernels plus the
   ablation pairs called out in DESIGN.md:
   - sparse evolve vs dense matrix-vector product,
   - lumped birth-death step vs full-chain step,
   - deflated power iteration vs full Jacobi for lambda_2,
   - logit transition-row construction and coupling steps.

   The ablation phases race independent routes to the same result
   and gate every pair on bit-identity. Each phase returns its timings
   as Bench.Record values; one shared path prints them as a table,
   appends them to the BENCH_HISTORY.json trajectory (see
   `logitdyn bench history`) and exits 1 if any record lost its
   correctness bit.

   Phase 1.5 times the multicore execution layer against the serial
   kernels it replaces: chain materialisation, the all-starts TV
   sweep, mixing_time_all, Monte Carlo empirical TV, and CFTP
   replicas.

   Phase 1.7 is the artifact-store ablation: the `logitdyn mixing`
   artifact pipeline (chain, stationary law, TV curve) is run cold and
   then warm against a fresh store, the decoded artifacts are checked
   bit-identical to the computed ones, and a killed-mid-grid sweep is
   resumed through Sweep.map_cached.

   Phase 1.9 is the daemon load bench: a logitdynd server is spun up
   on a private socket and (a) 8 clients race one same-chain mixing
   request each — answered serially vs through the server's coalesced
   panel sweep, gated on bit-identical replies — and (b) an open-loop
   sender offers requests at a fixed rate regardless of completions
   and times the p50/p99 response latencies.

   Phase 1.10 is the out-of-core segment ablation: a lazy cycle walk
   is packed into an on-disk segment (10^7 states in the full profile
   — past anything the in-RAM path is asked to hold) and the TV sweep
   is run over the streaming kernels, mmap'd serial and pooled and in
   bounded-buffer stream mode with the peak RSS sampled. All arms are
   gated on bit-identity against the in-RAM SpMM kernels at overlap
   sizes.

   Phase 1.11 is the β-family ablation: per-point chains vs one
   shared structure per β-grid.

   Usage: main.exe [--quick] [--skip-micro] [--jobs N]. --quick
   shrinks every workload; --skip-micro skips phase 2; --jobs N
   (N >= 2) picks the pool size (default: the machine's recommended
   domain count, at least 2). Any other argument exits 2. *)

open Bechamel
open Toolkit

let quick, skip_micro, jobs =
  let usage = "usage: main.exe [--quick] [--skip-micro] [--jobs N]  (N >= 2)" in
  let bad fmt =
    Printf.ksprintf
      (fun msg ->
        Printf.eprintf "%s\n%s\n" msg usage;
        exit 2)
      fmt
  in
  let rec parse ((quick, skip_micro, jobs) as acc) = function
    | [] -> acc
    | "--quick" :: rest -> parse (true, skip_micro, jobs) rest
    | "--skip-micro" :: rest -> parse (quick, true, jobs) rest
    | "--jobs" :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 2 -> parse (quick, skip_micro, j) rest
        | _ -> bad "--jobs expects an integer >= 2, got %S" n)
    | [ "--jobs" ] -> bad "--jobs expects a value"
    | arg :: _ -> bad "unknown argument %S" arg
  in
  parse
    (false, false, Int.max 2 (Domain.recommended_domain_count ()))
    (List.tl (Array.to_list Sys.argv))

(* --- Reporting: one table, one sink, one gate ---------------------------- *)

type report = {
  title : string;
  records : Bench.Record.t list;
  notes : string list;
}

(* One arm of an ablation. [vs] is the reference arm's seconds, so
   [speedup = vs / seconds]; a reference arm omits it. A record that
   fails validation (a zero-second arm's infinite speedup, say) is a
   bug in the phase that measured it: fail the run. *)
let record ?peak_rss_kb ?vs ~bench ~workload ~arm ~jobs ~correct seconds =
  let speedup = match vs with Some ref_s -> ref_s /. seconds | None -> 1.0 in
  match
    Bench.Record.v ?peak_rss_kb ~bench ~workload ~arm ~seconds ~speedup ~correct
      ~quick ~jobs ()
  with
  | Ok r -> r
  | Error msg ->
      Printf.eprintf "FATAL: %s/%s/%s: %s\n" bench workload arm msg;
      exit 1

(* Print the phase's table, append its records to the trajectory, then
   fail the run if any bit-identity gate failed — after the append, so
   the Incorrect verdict stays visible to `logitdyn bench compare`. *)
let emit { title; records; notes } =
  let module T = Experiments.Table in
  let table =
    T.create ~title
      [
        ("workload / arm", T.Left);
        ("seconds", T.Right);
        ("speedup", T.Right);
        ("jobs", T.Right);
        ("peak RSS", T.Right);
        ("correct", T.Right);
      ]
  in
  List.iter
    (fun (r : Bench.Record.t) ->
      T.add_row table
        [
          r.workload ^ " / " ^ r.arm;
          Printf.sprintf "%.4f" r.seconds;
          Printf.sprintf "%.2fx" r.speedup;
          string_of_int r.jobs;
          (match r.peak_rss_kb with
          | Some kb -> Printf.sprintf "%d kB" kb
          | None -> "-");
          T.cell_bool r.correct;
        ])
    records;
  List.iter (T.add_note table) notes;
  T.print table;
  match Bench.Sink.record_run records with
  | Error msg ->
      Printf.eprintf "FATAL: bench sink rejected the records: %s\n" msg;
      exit 1
  | Ok appended ->
      Printf.printf "+%d trajectory records in %s\n%!" (List.length appended)
        Bench.History.default_path;
      if not (List.for_all (fun (r : Bench.Record.t) -> r.correct) records)
      then begin
        Printf.eprintf "FATAL: a bit-identity gate failed in %S\n" title;
        exit 1
      end

(* --- Phase 2 fixtures ------------------------------------------------ *)

let ring_desc =
  Games.Graphical.create (Graphs.Generators.ring 10)
    (Games.Coordination.of_deltas ~delta0:1.0 ~delta1:1.0)

let ring_game = Games.Graphical.to_game ring_desc
let beta = 1.0
let ring_chain = lazy (Logit.Logit_dynamics.chain ring_game ~beta)

let ring_dense = lazy (Markov.Chain.to_dense (Lazy.force ring_chain))

let clique_bd = lazy (Logit.Lumping.clique ~n:64 ~delta0:1.0 ~delta1:1.0 ~beta)
let clique_bd_chain = lazy (Markov.Birth_death.to_chain (Lazy.force clique_bd))

let small_desc =
  Games.Graphical.create (Graphs.Generators.ring 6)
    (Games.Coordination.of_deltas ~delta0:1.0 ~delta1:1.0)

let small_game = Games.Graphical.to_game small_desc
let small_chain = lazy (Logit.Logit_dynamics.chain small_game ~beta)

let small_pi =
  lazy
    (Logit.Gibbs.stationary (Games.Game.space small_game)
       (Games.Graphical.potential small_desc)
       ~beta)

let tests =
  let uniform_vector n = Array.make n (1. /. float_of_int n) in
  [
    Test.make ~name:"logit/transition-row"
      (Staged.stage (fun () ->
           ignore (Logit.Logit_dynamics.transition_row ring_game ~beta 511)));
    Test.make ~name:"kernel/matvec-sparse"
      (Staged.stage (fun () ->
           let chain = Lazy.force ring_chain in
           ignore (Markov.Chain.evolve chain (uniform_vector 1024))));
    Test.make ~name:"kernel/matvec-dense"
      (Staged.stage (fun () ->
           let dense = Lazy.force ring_dense in
           ignore (Linalg.Mat.vmul (uniform_vector 1024) dense)));
    Test.make ~name:"kernel/lumping-bd-step"
      (Staged.stage (fun () ->
           let chain = Lazy.force clique_bd_chain in
           ignore (Markov.Chain.evolve chain (uniform_vector 65))));
    Test.make ~name:"kernel/lambda2-power"
      (Staged.stage (fun () ->
           let chain = Lazy.force small_chain in
           ignore (Markov.Spectral.lambda2 ~tol:1e-9 chain (Lazy.force small_pi))));
    Test.make ~name:"kernel/lambda2-jacobi"
      (Staged.stage (fun () ->
           let chain = Lazy.force small_chain in
           ignore (Markov.Spectral.spectrum chain (Lazy.force small_pi))));
    Test.make ~name:"logit/simulate-step"
      (Staged.stage
         (let rng = Prob.Rng.create 1 in
          let state = ref 0 in
          fun () -> state := Logit.Logit_dynamics.step rng ring_game ~beta !state));
    Test.make ~name:"logit/coupling-step"
      (Staged.stage
         (let rng = Prob.Rng.create 2 in
          let step = Logit.Dynamics.interval_coupling ring_game ~beta in
          let pair = ref (0, 1023) in
          fun () -> pair := step rng !pair));
    Test.make ~name:"barrier/zeta-ring10"
      (Staged.stage (fun () ->
           ignore
             (Logit.Barrier.zeta (Games.Game.space ring_game)
                (Games.Graphical.potential ring_desc))));
    Test.make ~name:"graphs/cutwidth-exact-n12"
      (Staged.stage (fun () ->
           ignore (Graphs.Cutwidth.exact (Graphs.Generators.ring 12))));
    Test.make ~name:"logit/metropolis-step"
      (Staged.stage
         (let rng = Prob.Rng.create 3 in
          let state = ref 0 in
          fun () -> state := Logit.Metropolis.step rng ring_game ~beta !state));
    Test.make ~name:"logit/cftp-exact-sample"
      (Staged.stage
         (let rng = Prob.Rng.create 4 in
          fun () ->
            ignore (Logit.Perfect_sampling.sample rng small_game ~beta)));
    Test.make ~name:"logit/transfer-matrix-n1000"
      (Staged.stage
         (let phi =
            Games.Coordination.edge_potential
              (Games.Coordination.of_deltas ~delta0:1.0 ~delta1:1.0)
          in
          fun () ->
            let tm = Logit.Transfer_matrix.create ~strategies:2 ~beta:2.0 phi in
            ignore (Logit.Transfer_matrix.log_partition tm ~n:1000)));
    Test.make ~name:"kernel/tridiag-bd-n256"
      (Staged.stage (fun () ->
           let bd = Logit.Lumping.clique ~n:255 ~delta0:1.0 ~delta1:1.0 ~beta:0.01 in
           ignore (Markov.Birth_death.decomposition bd)));
  ]

(* --- Phase 1.5: serial vs parallel ablation --------------------------- *)

(* All durations are measured on the monotonic clock: the wall clock
   can step under NTP, and a backwards step would corrupt the
   min-of-reps estimates below by recording a negative or tiny rep. *)
let time f =
  let t0 = Common.Clock.monotonic_ns () in
  let result = f () in
  (result, Common.Clock.span_s ~since:t0)

(* Tiny kernels (full-size by_power is ~5 ms) are noise at single-shot
   granularity: preemption, GC slices and frequency drift all add time,
   never subtract it, so the per-arm *minimum* over interleaved reps is
   the robust estimate of the true cost (mean-of-reps still wobbled
   ±5% between identical arms). Alternate which arm goes first so
   neither slot systematically absorbs events the other one queued up;
   each arm runs once up front for its result (doubling as warm-up). *)
let time_pair ~reps f g =
  let rf = f () in
  let rg = g () in
  let tf = ref infinity in
  let tg = ref infinity in
  let timed cell h =
    let t0 = Common.Clock.monotonic_ns () in
    ignore (h ());
    cell := Float.min !cell (Common.Clock.span_s ~since:t0)
  in
  for rep = 1 to reps do
    if rep land 1 = 0 then (timed tf f; timed tg g)
    else (timed tg g; timed tf f)
  done;
  ((rf, !tf), (rg, !tg))

let chain_equal a b =
  Markov.Chain.size a = Markov.Chain.size b
  && begin
       let ok = ref true in
       for i = 0 to Markov.Chain.size a - 1 do
         if Markov.Chain.row a i <> Markov.Chain.row b i then ok := false
       done;
       !ok
     end

let run_exec_ablation () =
  let n_ring = if quick then 8 else 10 in
  let steps = if quick then 50 else 200 in
  let replicas = if quick then 2_000 else 20_000 in
  let cftp_count = if quick then 200 else 1_000 in
  let desc =
    Games.Graphical.create (Graphs.Generators.ring n_ring)
      (Games.Coordination.of_deltas ~delta0:1.0 ~delta1:1.0)
  in
  let game = Games.Graphical.to_game desc in
  let size = Games.Game.size game in
  let pi =
    Logit.Gibbs.stationary (Games.Game.space game)
      (Games.Graphical.potential desc)
      ~beta
  in
  let starts = List.init size Fun.id in
  Exec.Pool.with_pool ~domains:jobs @@ fun pool ->
  (* The serial arm is the reference; the pooled arm must reproduce its
     output exactly. *)
  let pair workload (t_s, t_p) correct =
    let r = record ~bench:"exec_ablation" ~workload ~correct in
    [ r ~arm:"serial" ~jobs:1 t_s; r ~arm:"pooled" ~jobs ~vs:t_s t_p ]
  in
  let chain_s, t_s = time (fun () -> Logit.Logit_dynamics.chain game ~beta) in
  let chain_p, t_p = time (fun () -> Logit.Logit_dynamics.chain ~pool game ~beta) in
  let chain_records =
    pair "chain_materialise" (t_s, t_p) (chain_equal chain_s chain_p)
  in
  let curve_s, t_s =
    time (fun () -> Markov.Mixing.tv_curve chain_s pi ~starts ~steps)
  in
  let curve_p, t_p =
    time (fun () -> Markov.Mixing.tv_curve ~pool chain_s pi ~starts ~steps)
  in
  let curve_records = pair "tv_curve" (t_s, t_p) (curve_s = curve_p) in
  let tmix_s, t_s = time (fun () -> Markov.Mixing.mixing_time_all chain_s pi) in
  let tmix_p, t_p =
    time (fun () -> Markov.Mixing.mixing_time_all ~pool chain_s pi)
  in
  let tmix_records = pair "mixing_time_all" (t_s, t_p) (tmix_s = tmix_p) in
  let emp_s, t_s =
    time (fun () ->
        Markov.Mixing.empirical_tv (Prob.Rng.create 11) chain_s pi ~start:0
          ~steps:100 ~replicas)
  in
  let emp_p, t_p =
    time (fun () ->
        Markov.Mixing.empirical_tv ~pool (Prob.Rng.create 11) chain_s pi ~start:0
          ~steps:100 ~replicas)
  in
  let emp_records = pair "empirical_tv" (t_s, t_p) (emp_s = emp_p) in
  let small = Games.Graphical.to_game small_desc in
  let cftp_s, t_s =
    time (fun () ->
        Logit.Perfect_sampling.samples (Prob.Rng.create 12) small ~beta
          ~count:cftp_count)
  in
  let cftp_p, t_p =
    time (fun () ->
        Logit.Perfect_sampling.samples ~pool (Prob.Rng.create 12) small ~beta
          ~count:cftp_count)
  in
  let cftp_records = pair "cftp_samples" (t_s, t_p) (cftp_s = cftp_p) in
  {
    title =
      Printf.sprintf
        "exec ablation: serial vs %d domains (ring n=%d, |S|=%d, beta=%g)" jobs
        n_ring size beta;
    records =
      List.concat
        [ chain_records; curve_records; tmix_records; emp_records; cftp_records ];
    notes =
      [
        Printf.sprintf
          "tv_curve: all starts, %d steps; empirical_tv: %d replicas; \
           cftp_samples: %d draws. Pooled runs reuse one pool; correct = \
           pooled output bit-identical to serial."
          steps replicas cftp_count;
      ];
  }

(* --- Phase 1.7: artifact store ablation -------------------------------- *)

let run_store_ablation () =
  let n_ring = if quick then 8 else 10 in
  let tv_steps = if quick then 50 else 150 in
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "logitdyn-bench-store-%d" (Unix.getpid ()))
  in
  let cas = Store.Cas.open_ ~dir:root () in
  ignore (Store.Cas.clear cas);
  let desc =
    Games.Graphical.create (Graphs.Generators.ring n_ring)
      (Games.Coordination.of_deltas ~delta0:1.0 ~delta1:1.0)
  in
  let game = Games.Graphical.to_game desc in
  let size = Games.Game.size game in
  let phi = Games.Graphical.potential desc in
  let starts = List.init size Fun.id in
  (* One "run" of the `logitdyn mixing` artifact pipeline: chain,
     stationary law and TV curve, each built through the store. *)
  let chain_key =
    Markov.Chain_codec.recipe ~game:"bench-ring" ~size ~beta
      ~variant:"sequential-logit"
      ~extra:[ ("n", string_of_int n_ring) ]
      ()
  in
  let dist_key =
    Store.Key.v ~kind:"dist"
      [
        ("game", "bench-ring");
        ("n", string_of_int n_ring);
        ("beta", Store.Key.float_field beta);
        ("role", "stationary");
      ]
  in
  let curve_key =
    Store.Key.v ~kind:"curve"
      [
        ("game", "bench-ring");
        ("n", string_of_int n_ring);
        ("beta", Store.Key.float_field beta);
        ("steps", string_of_int tv_steps);
      ]
  in
  let through key encode decode build =
    match Store.Cas.get_decoded cas key ~decode with
    | Some v -> v
    | None ->
        let v = build () in
        Store.Cas.put cas key (encode v);
        v
  in
  let run_once () =
    let chain =
      Markov.Chain_codec.cached ~store:cas chain_key (fun () ->
          Logit.Logit_dynamics.chain game ~beta)
    in
    let pi =
      through dist_key Store.Codec.encode_dist Store.Codec.decode_dist
        (fun () -> Logit.Gibbs.stationary (Games.Game.space game) phi ~beta)
    in
    let curve =
      through curve_key Store.Codec.encode_curve Store.Codec.decode_curve
        (fun () -> Markov.Mixing.tv_curve chain pi ~starts ~steps:tv_steps)
    in
    (chain, pi, curve)
  in
  let (chain_cold, pi_cold, curve_cold), t_cold = time run_once in
  let cold = Store.Cas.stats cas in
  let (chain_warm, pi_warm, curve_warm), t_warm = time run_once in
  let warm = Store.Cas.stats cas in
  let warm_hits = warm.Store.Cas.hits - cold.Store.Cas.hits in
  let chain_identical = chain_equal chain_cold chain_warm in
  let pi_identical = pi_cold = pi_warm in
  let curve_identical = curve_cold = curve_warm in
  (* Resume a sweep killed mid-grid: file the first 5 of 12 points by
     hand (the "interrupted run"), then let Sweep.map_cached finish. *)
  let grid = List.init 12 Fun.id in
  let point_key i =
    Store.Key.v ~kind:"bench-point" [ ("i", string_of_int i) ]
  in
  let encode_point x = Store.Codec.encode_dist [| x |] in
  let decode_point s = Result.map (fun a -> a.(0)) (Store.Codec.decode_dist s) in
  let computed = ref 0 in
  let f i =
    incr computed;
    float_of_int (i * i)
  in
  List.iter
    (fun i -> if i < 5 then Store.Cas.put cas (point_key i) (encode_point (f i)))
    grid;
  let before_resume = !computed in
  let results =
    Experiments.Sweep.map_cached ~store:cas ~key:point_key ~encode:encode_point
      ~decode:decode_point f grid
  in
  let recomputed = !computed - before_resume in
  let resume_ok =
    recomputed = 7 && results = List.map (fun i -> float_of_int (i * i)) grid
  in
  ignore (Store.Cas.clear cas);
  (* The resume check has no timing of its own; it gates the pipeline
     records alongside the decoded-artifact identity. *)
  let r =
    record ~bench:"store_ablation" ~workload:"pipeline" ~jobs:1
      ~correct:(chain_identical && pi_identical && curve_identical && resume_ok)
  in
  {
    title =
      Printf.sprintf
        "store ablation: cold vs warm artifact pipeline (ring n=%d, |S|=%d, \
         beta=%g)"
        n_ring size beta;
    records = [ r ~arm:"cold" t_cold; r ~arm:"warm" ~vs:t_cold t_warm ];
    notes =
      [
        Printf.sprintf
          "pipeline = chain + stationary + tv_curve(%d). cold: %d miss(es), \
           %d write(s); warm: %d hit(s). Sweep resume (12 points, 5 \
           pre-filed): %d recomputed, %s. correct = decoded artifacts \
           bit-identical to the computed ones and the resume check held."
          tv_steps cold.Store.Cas.misses cold.Store.Cas.writes warm_hits
          recomputed
          (if resume_ok then "ok" else "FAILED");
      ];
  }

(* --- Phase 1.9: daemon load bench ------------------------------------ *)

let run_serve_ablation () =
  let module SP = Serve.Protocol in
  let n_ring = if quick then 8 else 10 in
  let beta = 1.0 in
  let clients = 8 in
  (* Distinct eps per client: the eight requests coalesce into ONE
     panel sweep but settle at different steps, so the bit-identity
     gate compares genuinely different answers, not 8 copies of one. *)
  let epss = [ 0.3; 0.25; 0.2; 0.15; 0.12; 0.1; 0.08; 0.05 ] in
  assert (List.length epss = clients);
  let mixing_q ~n eps =
    SP.Mixing { game = "ring"; n; beta; eps; replicas = 0; seed = 1 }
  in
  let socket_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "logitdyn-bench-%d.sock" (Unix.getpid ()))
  in
  (* spectral_cutoff 0 forces the panel route on both arms: this phase
     times the coalescing scheduler, not the eigensolver. *)
  let server_engine = Serve.Engine.create ~spectral_cutoff:0 () in
  let server = Serve.Server.create ~engine:server_engine ~socket_path () in
  let server_domain =
    Domain.spawn (fun () -> Serve.Server.serve_forever server)
  in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      Domain.join server_domain)
  @@ fun () ->
  let serial_engine = Serve.Engine.create ~spectral_cutoff:0 () in
  let size =
    match Serve.Engine.entry serial_engine ~game:"ring" ~n:n_ring ~beta with
    | Ok e -> Games.Game.size e.Serve.Engine.game
    | Error msg -> failwith msg
  in
  (* Warm the daemon's chain untimed so both arms time sweeps only. *)
  (match Serve.Client.query ~socket_path (mixing_q ~n:n_ring 0.45) with
  | Ok (Ok _) -> ()
  | Ok (Error _) | Error _ -> failwith "daemon warm-up query failed");
  let serial_replies, serial_s =
    time (fun () ->
        List.map
          (fun eps -> Serve.Engine.eval serial_engine (mixing_q ~n:n_ring eps))
          epss)
  in
  let conns =
    List.map
      (fun _ ->
        match Serve.Client.connect ~socket_path with
        | Ok c -> c
        | Error msg -> failwith msg)
      epss
  in
  let daemon_replies, coalesced_s =
    time (fun () ->
        List.iter2
          (fun c eps ->
            match
              Serve.Client.send c
                { SP.id = 1; deadline_ms = None; query = mixing_q ~n:n_ring eps }
            with
            | Ok () -> ()
            | Error msg -> failwith msg)
          conns epss;
        List.map
          (fun c ->
            match Serve.Client.recv c with
            | Ok resp -> resp.SP.result
            | Error msg -> failwith msg)
          conns)
  in
  List.iter Serve.Client.close conns;
  let bit_identical = daemon_replies = serial_replies in
  let stats () =
    match Serve.Client.query ~socket_path SP.Stats with
    | Ok (Ok (SP.Stats_r s)) -> s
    | Ok _ | Error _ -> failwith "daemon stats query failed"
  in
  let co_stats = stats () in
  (* Open loop: offer requests at a fixed rate from a pacing domain,
     regardless of completions, and time each response on the main
     domain — queueing delay under load is part of the latency. *)
  let requests = if quick then 120 else 300 in
  let offered_rps = 200. in
  let open_q = mixing_q ~n:6 0.25 in
  (match Serve.Client.query ~socket_path open_q with
  | Ok (Ok _) -> ()
  | Ok (Error _) | Error _ -> failwith "open-loop warm-up query failed");
  let c =
    match Serve.Client.connect ~socket_path with
    | Ok c -> c
    | Error msg -> failwith msg
  in
  let send_ns = Array.make (requests + 1) 0L in
  let recv_ns = Array.make (requests + 1) 0L in
  let failures = ref 0 in
  let sender =
    Domain.spawn (fun () ->
        let interval_ns = Int64.of_float (1e9 /. offered_rps) in
        let start = Common.Clock.monotonic_ns () in
        for i = 1 to requests do
          let due =
            Int64.add start (Int64.mul interval_ns (Int64.of_int (i - 1)))
          in
          let rec wait () =
            let remain =
              Int64.to_float (Int64.sub due (Common.Clock.monotonic_ns ()))
              /. 1e9
            in
            if remain > 0. then begin
              if remain > 0.001 then Unix.sleepf (remain -. 0.0005);
              wait ()
            end
          in
          wait ();
          send_ns.(i) <- Common.Clock.monotonic_ns ();
          match
            Serve.Client.send c { SP.id = i; deadline_ms = None; query = open_q }
          with
          | Ok () -> ()
          | Error msg -> failwith msg
        done)
  in
  for _ = 1 to requests do
    match Serve.Client.recv c with
    | Ok resp ->
        recv_ns.(resp.SP.req_id) <- Common.Clock.monotonic_ns ();
        (match resp.SP.result with Ok _ -> () | Error _ -> incr failures)
    | Error msg -> failwith msg
  done;
  Domain.join sender;
  Serve.Client.close c;
  let lat_ms =
    Array.init requests (fun k ->
        Int64.to_float (Int64.sub recv_ns.(k + 1) send_ns.(k + 1)) /. 1e6)
  in
  Array.sort compare lat_ms;
  let percentile q =
    lat_ms.(Int.min (requests - 1)
              (int_of_float (Float.round (q *. float_of_int (requests - 1)))))
  in
  let p50 = percentile 0.50 and p99 = percentile 0.99 in
  let last_recv = Array.fold_left Int64.max 0L recv_ns in
  let elapsed_s = Int64.to_float (Int64.sub last_recv send_ns.(1)) /. 1e9 in
  let achieved_rps = float_of_int requests /. elapsed_s in
  let r = record ~bench:"serve_ablation" ~jobs:1 in
  (* Latencies ride the trajectory as seconds, so the regression gate
     bounds p50/p99 drift like any other arm. *)
  let open_loop = r ~workload:"open_loop" ~correct:(!failures = 0) in
  {
    title =
      Printf.sprintf
        "daemon ablation: coalesced panel scheduler (ring n=%d, |S|=%d, beta=%g)"
        n_ring size beta;
    records =
      [
        r ~workload:"coalescing_x8" ~arm:"serial" ~correct:bit_identical serial_s;
        r ~workload:"coalescing_x8" ~arm:"coalesced" ~correct:bit_identical
          ~vs:serial_s coalesced_s;
        open_loop ~arm:"p50_latency" (p50 /. 1000.);
        open_loop ~arm:"p99_latency" (p99 /. 1000.);
      ];
    notes =
      [
        Printf.sprintf
          "coalescing_x%d: distinct eps per client; %d batch(es), widest %d, \
           %d panel step(s); correct = daemon replies bit-identical to \
           serial engine evals."
          clients co_stats.SP.batches co_stats.SP.max_batch
          co_stats.SP.panel_steps;
        Printf.sprintf
          "open_loop: %d requests offered at %.0f rps, %.0f rps achieved, %d \
           error(s); correct = no request failed."
          requests offered_rps achieved_rps !failures;
      ];
  }

(* --- Phase 1.10: out-of-core segment ablation --------------------------- *)

(* The lazy cycle walk: three entries per row, uniform stationary law
   (doubly stochastic), and a state count limited by nothing but disk
   — the full profile packs 10^7 states and streams them back block
   by block. *)
let cycle_row n i =
  [ ((i + n - 1) mod n, 0.25); (i, 0.5); ((i + 1) mod n, 0.25) ]

let run_ooc_ablation () =
  let n = if quick then 1 lsl 14 else 10_000_000 in
  let steps = if quick then 50 else 12 in
  let block_nnz = if quick then 1 lsl 12 else Ooc.Segment.default_block_nnz in
  let seg_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "logitdyn-bench-ooc-%d.seg" (Unix.getpid ()))
  in
  let with_pool_opt j f =
    if j <= 1 then f None
    else Exec.Pool.with_pool ~domains:j (fun p -> f (Some p))
  in
  let rm path = try Sys.remove path with Sys_error _ -> () in
  (* Equivalence gate 1: on an overlap size where the in-RAM SpMM arm
     is comfortable, the out-of-core TV sweep must be bit-identical
     across access modes and pool sizes 1/2/4. Tiny blocks force
     column ranges to straddle block boundaries. *)
  let overlap_ok =
    let n' = 1 lsl 12 in
    let chain = Markov.Chain.of_function n' (cycle_row n') in
    let pi = Array.make n' (1. /. float_of_int n') in
    let starts = [ 0; 1; (n' / 2); n' - 1 ] in
    let path = seg_path ^ ".overlap" in
    let _ =
      Ooc.Segment.pack ~block_nnz:(1 lsl 9) ~path ~size:n' ~row:(cycle_row n') ()
    in
    Fun.protect ~finally:(fun () -> rm path) @@ fun () ->
    let reference = Markov.Mixing.tv_curve chain pi ~starts ~steps:30 in
    List.for_all
      (fun access ->
        match Ooc.Segmented_chain.open_ ~access path with
        | Error msg -> failwith msg
        | Ok sc ->
            Fun.protect ~finally:(fun () -> Ooc.Segmented_chain.close sc)
            @@ fun () ->
            let kernel = Ooc.Segmented_chain.kernel sc in
            List.for_all
              (fun j ->
                with_pool_opt j @@ fun pool ->
                Markov.Mixing.tv_curve_kernel ?pool kernel pi ~starts ~steps:30
                = reference)
              [ 1; 2; 4 ])
      [ Ooc.Segment.Mmap; Ooc.Segment.Stream ]
  in
  (* Equivalence gate 2: the fixed-point workloads (π by power
     iteration, t_mix to full convergence) on a size where running
     them to the end is cheap — the kernel path must land on the very
     same iterates. *)
  let fixpoint_ok =
    let n' = 128 in
    let chain = Markov.Chain.of_function n' (cycle_row n') in
    let pi = Array.make n' (1. /. float_of_int n') in
    let path = seg_path ^ ".fix" in
    let _ =
      Ooc.Segment.pack ~block_nnz:24 ~path ~size:n' ~row:(cycle_row n') ()
    in
    Fun.protect ~finally:(fun () -> rm path) @@ fun () ->
    match Ooc.Segmented_chain.open_ path with
    | Error msg -> failwith msg
    | Ok sc ->
        Fun.protect ~finally:(fun () -> Ooc.Segmented_chain.close sc)
        @@ fun () ->
        let kernel = Ooc.Segmented_chain.kernel sc in
        let power_ok =
          Markov.Stationary.by_power_kernel kernel
          = Markov.Stationary.by_power chain
        in
        let mix_ref = Markov.Mixing.mixing_time chain pi ~starts:[ 0 ] in
        let mix_ok =
          List.for_all
            (fun j ->
              with_pool_opt j @@ fun pool ->
              Markov.Mixing.mixing_time_kernel ?pool kernel pi ~starts:[ 0 ]
              = mix_ref)
            [ 1; 4 ]
        in
        power_ok && mix_ok
  in
  (* Full-size arms: pack once, then the same TV sweep through each
     access mode. The stream arm runs first so its RSS sample does not
     share the address space with a still-mapped copy of the file. *)
  let info, t_pack =
    time (fun () ->
        Ooc.Segment.pack ~block_nnz ~path:seg_path ~size:n ~row:(cycle_row n) ())
  in
  Fun.protect ~finally:(fun () -> rm seg_path) @@ fun () ->
  let pi = Array.make n (1. /. float_of_int n) in
  let starts = [ 0 ] in
  let run_arm ~access ~pool_jobs =
    match Ooc.Segmented_chain.open_ ~access seg_path with
    | Error msg -> failwith msg
    | Ok sc ->
        Fun.protect ~finally:(fun () -> Ooc.Segmented_chain.close sc)
        @@ fun () ->
        let kernel = Ooc.Segmented_chain.kernel sc in
        with_pool_opt pool_jobs @@ fun pool ->
        (* Compact, then reset the VmHWM watermark, so the sample is
           this arm's own peak, not a leftover from pack or an
           earlier arm. *)
        Gc.compact ();
        ignore (Common.Rss.reset_peak () : bool);
        let curve, t =
          time (fun () ->
              Markov.Mixing.tv_curve_kernel ?pool kernel pi ~starts ~steps)
        in
        (curve, t, Common.Rss.peak_kb ())
  in
  let curve_stream, t_stream, rss_stream =
    run_arm ~access:Ooc.Segment.Stream ~pool_jobs:1
  in
  let curve_mmap, t_mmap, rss_mmap =
    run_arm ~access:Ooc.Segment.Mmap ~pool_jobs:1
  in
  let curve_pool, t_pool, _ = run_arm ~access:Ooc.Segment.Mmap ~pool_jobs:jobs in
  let arms_agree = curve_stream = curve_mmap && curve_pool = curve_mmap in
  let r =
    record ~bench:"ooc_ablation"
      ~correct:(overlap_ok && fixpoint_ok && arms_agree)
  in
  let tv = r ~workload:"tv_curve" in
  {
    title =
      Printf.sprintf
        "out-of-core ablation: segmented vs in-RAM kernels (cycle walk, \
         |S|=%d, nnz=%d, %d blocks, %d domains)"
        info.Ooc.Segment.b_n info.Ooc.Segment.b_nnz info.Ooc.Segment.b_blocks
        jobs;
    records =
      [
        r ~workload:"pack" ~arm:"stream_build" ~jobs:1 t_pack;
        tv ?peak_rss_kb:rss_mmap ~arm:"mmap_serial" ~jobs:1 t_mmap;
        tv ~arm:"mmap_pooled" ~jobs ~vs:t_mmap t_pool;
        tv ?peak_rss_kb:rss_stream ~arm:"stream_serial" ~jobs:1 ~vs:t_mmap
          t_stream;
      ];
    notes =
      [
        Printf.sprintf
          "pack = two-pass stream build; tv_curve(%d) from one start. \
           Segment file: %d bytes on disk. Overlap equivalence vs in-RAM \
           SpMM (pools 1/2/4, mmap+stream): %s; fixed-point equivalence \
           (by_power, mixing_time): %s; full-size arms agree: %s. correct = \
           all three."
          steps info.Ooc.Segment.b_bytes
          (if overlap_ok then "yes" else "NO")
          (if fixpoint_ok then "yes" else "NO")
          (if arms_agree then "yes" else "NO");
      ];
  }

(* --- Phase 1.11: β-family ablation ------------------------------------- *)

(* β-grids are the repo's dominant workload shape, so this phase races
   the family layer against the per-point paths it replaces: (a) cold
   grid build — one chain_family (utilities tabulated once, shared
   structure) vs an independent chain per β; (b) multi-β panel
   advancement — the fused shared-structure SpMM vs per-plane
   evolve_many_into; (c) the structure-once family store layout, cold
   vs warm. Every arm is gated on bit-identity against its per-β
   counterpart. *)
let run_family_ablation () =
  (* The paper's Section 5 clique coordination game: every player's
     utility sums over n-1 neighbours, so the per-state utility
     tabulation the family shares across the grid is a real fraction
     of the build — the regime β-families exist for. *)
  let n_players = if quick then 8 else 10 in
  let grid_points = if quick then 8 else 12 in
  let betas =
    List.init grid_points (fun i -> 0.05 +. (0.05 *. float_of_int i))
  in
  let sweep_steps = if quick then 200 else 400 in
  let desc =
    Games.Graphical.create (Graphs.Generators.clique n_players)
      (Games.Coordination.of_deltas ~delta0:1.0 ~delta1:1.0)
  in
  let space = Games.Graphical.space desc in
  let phi = Games.Graphical.potential desc in
  (* Deliberately NOT [Graphical.to_game]: that tabulates every utility
     into a per-player table for spaces ≤ 2^22, which already amortises
     utility evaluation across the grid at game level. β-families exist
     for the regime where that table is unaffordable (large spaces,
     out-of-core sweeps) — modelled here by keeping the utility a real
     neighbour-sum computation, so per-point rebuilds pay it at every β
     while [chain_family] tabulates it once. The floats are the same
     either way, so the bit-identity gates are unaffected. *)
  let graph = Games.Graphical.graph desc in
  let basic = Games.Graphical.basic desc in
  let game =
    Games.Game.create
      ~name:(Printf.sprintf "clique-coordination-untabulated(n=%d)" n_players)
      space
      (fun player idx ->
        let mine = Games.Strategy_space.player_strategy space idx player in
        List.fold_left
          (fun acc v ->
            acc
            +. Games.Coordination.payoff basic mine
                 (Games.Strategy_space.player_strategy space idx v))
          0.
          (Graphs.Graph.neighbors graph player))
  in
  let size = Games.Game.size game in
  Exec.Pool.with_pool ~domains:jobs @@ fun pool ->
  (* (a) Cold β-grid build: P independent chain builds vs one family. *)
  let (per_point, t_per_point), (family, t_family) =
    time_pair
      ~reps:(if quick then 25 else 9)
      (fun () -> List.map (fun beta -> Logit.Logit_dynamics.chain ~pool game ~beta) betas)
      (fun () -> Logit.Logit_dynamics.chain_family ~pool game ~betas)
  in
  let build_identical =
    List.for_all Fun.id
      (List.mapi
         (fun i c -> chain_equal c (Markov.Family.plane family i))
         per_point)
  in
  (* (headline) Cold β-grid sweep — the workload [mixing --betas] and
     E2 actually run: build every grid point's chain and settle its
     mixing time from the extremal (consensus) starts. The per-point
     arm rebuilds from the game at each β; the family arm tabulates
     utilities once and settles the whole grid in one fused panel
     sweep. *)
  let mix_starts = [ 0; size - 1 ] in
  let mix_eps = 0.25 in
  let mix_max_steps = 50_000 in
  let sweep_per_point () =
    List.map
      (fun beta ->
        let chain = Logit.Logit_dynamics.chain ~pool game ~beta in
        let pi = Logit.Gibbs.stationary space phi ~beta in
        Markov.Mixing.mixing_time ~pool ~eps:mix_eps ~max_steps:mix_max_steps
          chain pi ~starts:mix_starts)
      betas
  in
  let sweep_family () =
    let fam = Logit.Logit_dynamics.chain_family ~pool game ~betas in
    let pis =
      Array.of_list
        (List.map (fun beta -> Logit.Gibbs.stationary space phi ~beta) betas)
    in
    Array.to_list
      (Markov.Mixing.family_mixing_times ~pool ~eps:mix_eps
         ~max_steps:mix_max_steps fam ~pis ~starts:mix_starts)
  in
  let (pp_times, t_pp_sweep), (fam_times, t_fam_sweep) =
    time_pair ~reps:(if quick then 9 else 5) sweep_per_point sweep_family
  in
  let sweep_identical = pp_times = fam_times in
  (* (b) Multi-β panel advancement: narrow panels (the daemon's
     regime, where the shared index structure rather than the panel
     dominates the traffic), [sweep_steps] steps — one
     evolve_many_into per plane per step vs the fused multi-plane
     traversal that reads each column's metadata once for the whole
     grid. *)
  let np = grid_points in
  let k = Int.min size 32 in
  let mk_panels () =
    Array.init np (fun _ ->
        let p = Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout (k * size) in
        Bigarray.Array1.fill p 0.;
        for r = 0 to k - 1 do
          Bigarray.Array1.set p ((r * size) + r) 1.
        done;
        p)
  in
  let scratch_panels () =
    Array.init np (fun _ ->
        Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout (k * size))
  in
  let advance_loop body =
    let src = ref (mk_panels ()) and dst = ref (scratch_panels ()) in
    for _ = 1 to sweep_steps do
      body !src !dst;
      let previous = !src in
      src := !dst;
      dst := previous
    done;
    !src
  in
  let run_sequential () =
    advance_loop (fun src dst ->
        List.iteri
          (fun p c -> Markov.Chain.evolve_many_into ~pool c ~k ~src:src.(p) ~dst:dst.(p))
          per_point)
  in
  let run_fused () =
    advance_loop (fun src dst ->
        Markov.Family.evolve_many_into ~pool family ~k ~src ~dst)
  in
  let (seq_panels, t_seq), (fused_panels, t_fused) =
    time_pair ~reps:(if quick then 9 else 5) run_sequential run_fused
  in
  let panels_identical =
    let ok = ref true in
    Array.iteri
      (fun p a ->
        let b = fused_panels.(p) in
        for i = 0 to (k * size) - 1 do
          (* Bit-equality, not tolerance: the fused kernel's contract. *)
          if Int64.bits_of_float (Bigarray.Array1.get a i)
             <> Int64.bits_of_float (Bigarray.Array1.get b i)
          then ok := false
        done)
      seq_panels;
    !ok
  in
  (* (c) The structure-once store layout: cold build-and-file vs warm
     decode of structure + per-β planes. *)
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "logitdyn-bench-family-%d" (Unix.getpid ()))
  in
  let cas = Store.Cas.open_ ~dir:root () in
  ignore (Store.Cas.clear cas);
  let through_store () =
    Markov.Family_codec.cached ~store:cas ~game:"bench-ring-family" ~size ~betas
      ~variant:"sequential-logit" (fun () ->
        Logit.Logit_dynamics.chain_family ~pool game ~betas)
  in
  let f_cold, t_cold = time through_store in
  let f_warm, t_warm = time through_store in
  let store_identical =
    List.for_all Fun.id
      (List.mapi
         (fun i _ ->
           chain_equal (Markov.Family.plane f_cold i) (Markov.Family.plane f_warm i)
           && chain_equal (Markov.Family.plane f_warm i) (Markov.Family.plane family i))
         betas)
  in
  ignore (Store.Cas.clear cas);
  (* Both arms of a pair carry its gate: the per-β reference and the
     family arm it must match bit-for-bit. *)
  let pair workload (ref_arm, t_ref) (arm, t) correct =
    let r = record ~bench:"family_ablation" ~workload ~jobs ~correct in
    [ r ~arm:ref_arm t_ref; r ~arm ~vs:t_ref t ]
  in
  {
    title =
      Printf.sprintf
        "beta-family ablation: per-point vs shared structure (clique n=%d, \
         |S|=%d, %d grid points, %d domains)"
        n_players size grid_points jobs;
    records =
      List.concat
        [
          pair "beta_grid_sweep" ("per_point", t_pp_sweep)
            ("family", t_fam_sweep) sweep_identical;
          pair "beta_grid_build" ("per_point", t_per_point) ("family", t_family)
            build_identical;
          pair "panel_sweep" ("sequential", t_seq) ("fused", t_fused)
            panels_identical;
          pair "family_store" ("cold", t_cold) ("warm", t_warm) store_identical;
        ];
    notes =
      [
        Printf.sprintf
          "panel_sweep: %d steps. Shared structure: %b; correct = family \
           path bit-identical to the independent per-beta path."
          sweep_steps
          (Markov.Family.shared_structure family);
      ];
  }

let run_micro () =
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ~stabilize:true ()
  in
  let grouped = Test.make_grouped ~name:"kernels" tests in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let estimate =
          match Analyze.OLS.estimates ols with
          | Some (x :: _) -> x
          | _ -> nan
        in
        let r2 = Option.value ~default:nan (Analyze.OLS.r_square ols) in
        (name, estimate, r2) :: acc)
      results []
  in
  let table =
    Experiments.Table.create ~title:"micro-benchmarks (Bechamel, OLS estimate)"
      [
        ("benchmark", Experiments.Table.Left);
        ("ns/run", Experiments.Table.Right);
        ("r^2", Experiments.Table.Right);
      ]
  in
  List.iter
    (fun (name, ns, r2) ->
      Experiments.Table.add_row table
        [ name; Printf.sprintf "%.1f" ns; Printf.sprintf "%.4f" r2 ])
    (List.sort compare rows);
  Experiments.Table.print table

let () =
  Printf.printf "logitdyn benchmark harness%s\n"
    (if quick then " (quick mode)" else "");
  Printf.printf "phase 1: regenerating every experiment table (E1..E9, X1..X10)\n";
  let t0 = Common.Clock.monotonic_ns () in
  Experiments.Registry.run_all ~quick ();
  Printf.printf "\nphase 1 elapsed: %.1fs\n" (Common.Clock.span_s ~since:t0);
  List.iter
    (fun (header, run) ->
      Printf.printf "\n%s\n%!" header;
      emit (run ()))
    [
      ( Printf.sprintf "phase 1.5: serial vs parallel ablation (%d domains)" jobs,
        run_exec_ablation );
      ("phase 1.7: artifact store ablation (cold vs warm)", run_store_ablation);
      ( "phase 1.9: daemon load bench (coalescing + open loop)",
        run_serve_ablation );
      ( "phase 1.10: out-of-core segment ablation (mmap + stream)",
        run_ooc_ablation );
      ( "phase 1.11: beta-family ablation (per-point vs shared structure)",
        run_family_ablation );
    ];
  if not skip_micro then begin
    Printf.printf "\nphase 2: micro-benchmarks\n%!";
    run_micro ()
  end
