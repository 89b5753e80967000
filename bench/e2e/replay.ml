(* The traced run: every workload replayed in process, with a span
   around each call into a layer's public functions, so the time of a
   CLI invocation or a daemon reply can be split by layer. The spans
   are the benchmark's own; the program carries no instrumentation. *)

module P = Serve.Protocol

type t = {
  sp : Spans.t;
  s : Workloads.samples;  (** checks only *)
  values : (string, Stats.summary) Hashtbl.t;
  env : Workloads.env;
}

let span t ?req_id name f = Spans.with_ t.sp ?req_id name f

let set t name xs =
  if not (List.mem name (List.map (fun m -> m.Metrics.name) Metrics.per_layer)) then
    invalid_arg ("Replay.set: undeclared metric " ^ name);
  Hashtbl.replace t.values name (Stats.summarize xs)

let set1 t name x = set t name [ x ]

(* Per-step layer times are means, so that time per step times the
   step count is the time the steps took. *)
let set_mean t name xs =
  set1 t name (List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs))

let median t name = (Hashtbl.find t.values name).Stats.median

let spec_of game =
  match Serve.Catalog.find game with
  | Some spec -> spec
  | None -> failwith ("catalog has no game " ^ game)

let all_starts n = List.init n Fun.id

(* The steps of Serve.Engine's chain build, each behind its own span. *)
let build t ~game ~n ~beta =
  let spec = spec_of game in
  let g, phi = span t "games.build" (fun () -> spec.Serve.Catalog.build ~n ~beta) in
  let phi =
    match phi with Some phi -> phi | None -> failwith (game ^ " has no potential")
  in
  let chain = span t "logit.chain" (fun () -> Logit.Logit_dynamics.chain g ~beta) in
  let pi =
    span t "logit.stationary" (fun () ->
        Logit.Gibbs.stationary (Games.Game.space g) phi ~beta)
  in
  ignore (span t "markov.csc" (fun () -> Markov.Chain.to_csc chain));
  let reversible =
    span t "markov.reversible" (fun () -> Markov.Chain.is_reversible ~tol:1e-7 chain pi)
  in
  Workloads.check t.s reversible "%s n=%d beta=%g is reversible" game n beta;
  (g, phi, chain, pi)

let golden_t_mix ~n ~beta =
  Option.map snd (Parse.t_mix (Golden.read (Golden.mixing_file ~n ~beta)))

(* --- mixing_spectral: the CLI's default route ----------------------------- *)

let mixing_spectral t =
  let n = Schedule.spectral_n in
  span t "replay.mixing_spectral" (fun () ->
      List.iter
        (fun beta ->
          let _, _, chain, pi = build t ~game:"ring" ~n ~beta in
          let decomposition =
            span t "markov.decompose" (fun () -> Markov.Mixing.decompose chain pi)
          in
          let tmix =
            span t "markov.spectral_eval" (fun () ->
                Markov.Mixing.mixing_time_from_decomposition ~eps:0.25 ~decomposition pi
                  ~starts:(all_starts (Markov.Chain.size chain)))
          in
          Workloads.check t.s (tmix = golden_t_mix ~n ~beta)
            "replayed spectral t_mix, beta=%g" beta)
        (Schedule.shuffled ~seed:t.env.seed Schedule.spectral_betas));
  set t "markov.decompose_ms" (Spans.durations_ms t.sp "markov.decompose");
  set t "markov.spectral_eval_ms" (Spans.durations_ms t.sp "markov.spectral_eval")

(* --- mixing_panel: the CLI's route past the spectral cutoff --------------- *)

let panel_of_starts size : Markov.Chain.panel =
  let p = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (size * size) in
  Bigarray.Array1.fill p 0.;
  for r = 0 to size - 1 do
    Bigarray.Array1.unsafe_set p ((r * size) + r) 1.
  done;
  p

let spmm_probe_steps = 5

let mixing_panel t =
  let n = Schedule.panel_n in
  let beta = List.hd (Schedule.shuffled ~seed:t.env.seed Schedule.panel_betas) in
  let chain =
    span t "replay.mixing_panel" (fun () ->
        let _, _, chain, pi = build t ~game:"ring" ~n ~beta in
        let base = Markov.Kernel.of_chain chain in
        let kernel =
          {
            base with
            Markov.Kernel.evolve_many_into =
              (fun ~pool ~k ~src ~dst ->
                span t "markov.spmm_step" (fun () ->
                    base.Markov.Kernel.evolve_many_into ~pool ~k ~src ~dst));
          }
        in
        (* Mirrors Mixing.mixing_time's decision; a step span runs from
           one TV refresh to the next, so it holds one SpMM and one TV
           pass. *)
        let step_span = ref None in
        let decide ~step ~worst =
          Option.iter (Spans.leave t.sp) !step_span;
          step_span := None;
          if worst <= 0.25 then Some (Some step)
          else if step >= Serve.Engine.default_max_steps then Some None
          else begin
            step_span := Some (Spans.enter t.sp "markov.panel_step");
            None
          end
        in
        let tmix =
          span t "markov.panel_sweep" (fun () ->
              Markov.Mixing.panel_sweep_kernel kernel pi
                ~starts:(all_starts (Markov.Chain.size chain)) ~decide)
        in
        Workloads.check t.s (tmix = golden_t_mix ~n ~beta)
          "replayed panel t_mix, beta=%g" beta;
        chain)
  in
  let steps = Spans.durations_ms t.sp "markov.panel_step" in
  let spmm = Spans.durations_ms t.sp "markov.spmm_step" in
  set_mean t "markov.panel_step_ms" steps;
  set_mean t "markov.spmm_step_ms" spmm;
  set_mean t "markov.tv_step_ms" (List.map2 ( -. ) steps spmm);
  set1 t "markov.panel_steps" (float_of_int (List.length steps));
  (* Computed, not measured: both panels once plus one pass over the
     CSC arrays (column starts, row indices, probabilities). *)
  let size = Markov.Chain.size chain and nnz = Markov.Chain.nnz chain in
  let mb = float_of_int ((2 * size * size * 8) + ((size + 1) * 8) + (nnz * 16)) /. 1e6 in
  set1 t "markov.spmm_mb_per_step" mb;
  set1 t "markov.spmm_gbps" (mb /. median t "markov.spmm_step_ms");
  chain

(* The same SpMM on a two-domain pool: time per step and dispatches. *)
let exec_probe t chain =
  Gc.full_major ();
  let size = Markov.Chain.size chain in
  let src = panel_of_starts size in
  let dst = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (size * size) in
  let steps ?pool name =
    for i = 1 to spmm_probe_steps do
      let src, dst = if i mod 2 = 1 then (src, dst) else (dst, src) in
      span t name (fun () -> Markov.Chain.evolve_many_into ?pool chain ~k:size ~src ~dst)
    done
  in
  span t "probe.exec" (fun () ->
      steps "exec.spmm_step_j1";
      Exec.Pool.with_pool ~domains:2 (fun pool ->
          let before = Exec.Pool.dispatches pool in
          steps ~pool "exec.spmm_step_j2";
          let dispatches = Exec.Pool.dispatches pool - before in
          set1 t "exec.dispatches_per_step"
            (float_of_int dispatches /. float_of_int spmm_probe_steps)));
  let j2 = Spans.durations_ms t.sp "exec.spmm_step_j2" in
  set t "exec.spmm_step_j2_ms" j2;
  set1 t "exec.spmm_speedup_j2"
    (Stats.median (Spans.durations_ms t.sp "exec.spmm_step_j1") /. Stats.median j2)

let store_probe_reps = 3

(* Codec and content-addressed store on the largest chain a CLI user
   stores. *)
let store_probe t chain =
  let dir = Workloads.scratch t.env "probe-store" in
  Fun.protect ~finally:(fun () -> Workloads.rm_rf dir) @@ fun () ->
  span t "probe.store" (fun () ->
      let cas = Store.Cas.open_ ~dir () in
      let key = Store.Key.v ~kind:"e2e-probe" [ ("chain", "ring-12") ] in
      for _ = 1 to store_probe_reps do
        let bytes = span t "store.encode" (fun () -> Markov.Chain_codec.encode chain) in
        let decoded = span t "store.decode" (fun () -> Markov.Chain_codec.decode bytes) in
        Workloads.check t.s
          (match decoded with
          | Ok c -> Markov.Chain_codec.encode c = bytes
          | Error _ -> false)
          "chain codec round trip";
        span t "store.put" (fun () -> Store.Cas.put cas key bytes);
        let back = span t "store.get" (fun () -> Store.Cas.get cas key) in
        Workloads.check t.s (back = Some bytes) "store get returns what put stored"
      done);
  List.iter
    (fun (metric, name) -> set t metric (Spans.durations_ms t.sp name))
    [
      ("store.encode_ms", "store.encode");
      ("store.decode_ms", "store.decode");
      ("store.put_ms", "store.put");
      ("store.get_ms", "store.get");
    ]

(* --- experiments ----------------------------------------------------------- *)

(* [capture t f] runs [f] with stdout sent to a scratch file and
   returns what it printed. *)
let capture t f =
  let file = Workloads.scratch t.env "stdout" in
  flush stdout;
  let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600 in
  let saved = Unix.dup Unix.stdout in
  Unix.dup2 fd Unix.stdout;
  Unix.close fd;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close saved)
    f;
  let out = Golden.read file in
  Sys.remove file;
  out

let experiments t =
  let module R = Experiments.Registry in
  let registry = R.all @ R.extensions in
  Workloads.check t.s
    (List.map (fun e -> e.R.id) registry = Metrics.experiment_ids)
    "the registry holds the declared experiment ids";
  let golden = Golden.read Golden.experiments_file in
  span t "replay.experiments" (fun () ->
      List.iter
        (fun jobs ->
          Experiments.Sweep.set_jobs jobs;
          let out =
            capture t (fun () ->
                List.iter
                  (fun e ->
                    let name = Printf.sprintf "experiments.%s.j%d" e.R.id jobs in
                    span t name (fun () -> R.run_one ~quick:true e);
                    set1 t (name ^ "_s") (Spans.total_ms t.sp name /. 1e3))
                  registry)
          in
          Workloads.check t.s (out = golden)
            "in-process tables at -j %d match golden" jobs)
        [ 1; 2 ];
      Experiments.Sweep.set_jobs 1;
      let dir = Workloads.scratch t.env "exp-store" in
      Fun.protect ~finally:(fun () -> Workloads.rm_rf dir) @@ fun () ->
      let pass name =
        let cas = Store.Cas.open_ ~dir () in
        let run () = R.run_all ~store:cas ~quick:true () in
        let out = capture t (fun () -> span t name run) in
        Workloads.check t.s (out = golden) "%s tables match golden" name;
        Store.Cas.stats cas
      in
      let cold = pass "experiments.store_cold" in
      let bytes =
        List.fold_left
          (fun acc e -> acc + e.Store.Cas.size)
          0
          (Store.Cas.ls (Store.Cas.open_ ~dir ()))
      in
      let warm = pass "experiments.store_warm" in
      Workloads.check t.s
        (warm.Store.Cas.hits = cold.Store.Cas.misses)
        "warm pass hits every entry";
      set1 t "store.hits" (float_of_int warm.hits);
      set1 t "store.misses" (float_of_int cold.misses);
      set1 t "store.writes" (float_of_int cold.writes);
      set1 t "store.bytes" (float_of_int bytes))

(* --- daemon --------------------------------------------------------------- *)

let daemon t =
  let engine = Serve.Engine.create () in
  let golden = Golden.daemon_digest () in
  span t "replay.daemon" (fun () ->
      span t "daemon.warmup" (fun () ->
          List.iter
            (fun (e : Schedule.entry) ->
              ignore (build t ~game:e.game ~n:e.n ~beta:e.beta);
              ignore (span t "serve.eval.mixing" (fun () ->
                          Serve.Engine.eval engine (Schedule.warmup_query e))))
            Schedule.entries);
      List.iter
        (fun (metric, name) ->
          set1 t metric (Spans.total_ms ~within:"daemon.warmup" t.sp name))
        [
          ("games.build_ms", "games.build");
          ("logit.chain_ms", "logit.chain");
          ("logit.stationary_ms", "logit.stationary");
          ("markov.csc_ms", "markov.csc");
          ("markov.reversible_ms", "markov.reversible");
        ];
      let warm_evals = List.length Schedule.entries in
      let requests =
        Array.of_list (Schedule.traffic ~seed:t.env.seed ~rate:Workloads.rate ~decks:1)
      in
      let n = Array.length requests in
      let service_ns = Array.make n 0L in
      let results =
        Array.mapi
          (fun i (r : Schedule.request) ->
            let req_id = i + 1 in
            let wire =
              P.encode_request { P.id = req_id; deadline_ms = None; query = r.query }
            in
            let decoded =
              span t ~req_id "serve.decode" (fun () -> P.decode_request wire)
            in
            Workloads.check t.s
              (match decoded with Ok d -> d.P.query = r.query | Error _ -> false)
              "request %d decodes to what was sent" req_id;
            let name = "serve.eval." ^ Schedule.kind r.query in
            let c0 = Common.Clock.monotonic_ns () in
            let result =
              span t ~req_id name (fun () -> Serve.Engine.eval engine r.query)
            in
            service_ns.(i) <- Int64.sub (Common.Clock.monotonic_ns ()) c0;
            (match r.query with
            | P.Mixing { game; n; beta; _ } -> (
                match Serve.Engine.entry engine ~game ~n ~beta with
                | Ok e ->
                    ignore
                      (span t ~req_id "logit.barrier" (fun () ->
                           Serve.Engine.barrier_of e))
                | Error msg -> Workloads.check t.s false "entry %s" msg)
            | _ -> ());
            let frame =
              span t ~req_id "serve.encode" (fun () ->
                  P.encode_response { P.req_id; result })
            in
            Workloads.check t.s
              (golden r.query = Some (Golden.reply_digest result))
              "replayed %s matches golden" (Schedule.describe r.query);
            (result, String.length frame))
          requests
      in
      (* The server loop in virtual time: a batch takes every request
         that has arrived by the time the previous batch finished, and
         runs for as long as Scheduler.run_batch really takes. *)
      let stats = Serve.Scheduler.stats_zero () in
      let wait_ms = ref [] and errors = Hashtbl.create 4 in
      let rec loop i clock_ns =
        if i < n then begin
          let clock_ns = Int64.max clock_ns requests.(i).due_ns in
          let j = ref i in
          while !j < n && Int64.compare requests.(!j).due_ns clock_ns <= 0 do incr j done;
          let jobs =
            List.init (!j - i) (fun k ->
                {
                  Serve.Scheduler.tag = i + k;
                  req_id = i + k + 1;
                  deadline_ns = None;
                  query = requests.(i + k).query;
                })
          in
          let b0 = Common.Clock.monotonic_ns () in
          let outcomes =
            span t "serve.batch" (fun () -> Serve.Scheduler.run_batch engine stats jobs)
          in
          let took_ns = Int64.sub (Common.Clock.monotonic_ns ()) b0 in
          let finish_ns = Int64.add clock_ns took_ns in
          List.iter
            (fun ((job : int Serve.Scheduler.job), outcome) ->
              let k = job.tag in
              let frame result = P.encode_response { P.req_id = job.req_id; result } in
              Workloads.check t.s
                (frame outcome = frame (fst results.(k)))
                "batched reply %d is bit-identical to the serial one" job.req_id;
              (match outcome with
              | Error err ->
                  let key =
                    match err with
                    | P.Overloaded -> "rejected"
                    | P.Deadline_exceeded -> "expired"
                    | P.Bad_request _ | P.Server_error _ -> "failed"
                  in
                  let seen = Option.value ~default:0 (Hashtbl.find_opt errors key) in
                  Hashtbl.replace errors key (seen + 1)
              | Ok _ -> ());
              let latency = Int64.sub finish_ns requests.(k).due_ns in
              let wait_ns = Int64.sub latency service_ns.(k) in
              wait_ms := (Int64.to_float wait_ns /. 1e6) :: !wait_ms)
            outcomes;
          loop !j finish_ns
        end
      in
      loop 0 0L;
      let evals kind = Spans.durations_ms t.sp ("serve.eval." ^ kind) in
      (* The first evaluations of each chain are the warm-up's. *)
      let mixing = List.filteri (fun i _ -> i >= warm_evals) (evals "mixing") in
      set t "serve.service_ms.mixing" mixing;
      set t "serve.service_ms.stationary" (evals "stationary");
      set t "serve.service_ms.simulate" (evals "simulate");
      set1 t "serve.service_p99_ms.mixing"
        (Stats.percentile (Stats.sorted mixing) ~per_mille:990);
      set t "serve.batch_ms" (Spans.durations_ms t.sp "serve.batch");
      set t "logit.barrier_ms" (Spans.durations_ms t.sp "logit.barrier");
      let us name = List.map (fun ms -> ms *. 1e3) (Spans.durations_ms t.sp name) in
      set t "serve.encode_us" (us "serve.encode");
      set t "serve.decode_us" (us "serve.decode");
      set t "serve.frame_bytes"
        (Array.to_list (Array.map (fun (_, len) -> float_of_int len) results));
      let waits = Stats.sorted !wait_ms in
      set1 t "serve.queue_wait_p50_ms" (Stats.percentile waits ~per_mille:500);
      set1 t "serve.queue_wait_p99_ms" (Stats.percentile waits ~per_mille:990);
      let batches = stats.Serve.Scheduler.batches in
      set1 t "serve.batches" (float_of_int batches);
      set1 t "serve.mean_batch" (float_of_int n /. float_of_int batches);
      set1 t "serve.max_batch" (float_of_int stats.max_batch);
      (* The server admits a whole loop iteration's reads as one batch,
         so the deepest queue is the widest batch. *)
      set1 t "serve.queue_peak" (float_of_int stats.max_batch);
      List.iter
        (fun key ->
          set1 t ("serve." ^ key)
            (float_of_int (Option.value ~default:0 (Hashtbl.find_opt errors key))))
        [ "rejected"; "expired"; "failed" ];
      let hits, misses = Serve.Engine.cache_stats engine in
      set1 t "serve.chain_cache_hits" (float_of_int hits);
      set1 t "serve.chain_cache_misses" (float_of_int misses))

(* --- the whole replay -------------------------------------------------------- *)

let coverage t ~part ~whole = 100. *. part /. Spans.total_ms t.sp whole

let run env =
  let t =
    { sp = Spans.create (); s = Workloads.fresh (); values = Hashtbl.create 128; env }
  in
  mixing_spectral t;
  let chain = mixing_panel t in
  exec_probe t chain;
  store_probe t chain;
  experiments t;
  daemon t;
  let spectral_share =
    coverage t
      ~part:
        (Spans.total_ms t.sp "markov.decompose"
        +. Spans.total_ms t.sp "markov.spectral_eval")
      ~whole:"replay.mixing_spectral"
  in
  let panel_share =
    coverage t
      ~part:(median t "markov.panel_step_ms" *. median t "markov.panel_steps")
      ~whole:"replay.mixing_panel"
  in
  Workloads.check t.s (spectral_share >= 90.)
    "mixing_spectral: decompose + spectral_eval cover %.1f%% of the replay (at least \
     90%% required)"
    spectral_share;
  Workloads.check t.s (panel_share >= 90.)
    "mixing_panel: panel_step_ms x panel_steps covers %.1f%% of the replay (at least \
     90%% required)"
    panel_share;
  Workloads.note t.s "coverage: spectral %.1f%%, panel %.1f%%" spectral_share panel_share;
  let missing =
    List.filter (fun m -> not (Hashtbl.mem t.values m.Metrics.name)) Metrics.per_layer
  in
  Workloads.check t.s (missing = [])
    "every per-layer metric measured (missing: %s)"
    (String.concat " " (List.map (fun m -> m.Metrics.name) missing));
  t
