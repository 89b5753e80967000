(* The four workloads, measured from outside: the built binaries run as
   child processes with tracing off.

   Every workload fills the same sample sets, so every end-to-end
   metric means the same thing on each of them:
   - setup: making the program ready — a fresh private store for the
     CLI workloads, a started daemon taking connections for [daemon];
   - cold: an operation that meets empty caches;
   - latency: the operations a user waits on in the timed part of the
     run, whose tail is p99_ms;
   - typical: the operations whose median is p50_ms — the latency
     samples themselves, except on [daemon] (see there);
   - rss: the program's peak resident set. *)

module P = Serve.Protocol

type samples = {
  mutable setup : float list;  (** seconds *)
  mutable cold : float list;  (** seconds *)
  mutable latency : float list;  (** seconds *)
  mutable typical : float list;  (** seconds *)
  mutable rss_kb : int list;
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;  (** newest first *)
}

let fresh () =
  {
    setup = [];
    cold = [];
    latency = [];
    typical = [];
    rss_kb = [];
    attempted = 0;
    failed = 0;
    notes = [];
  }

let note s fmt = Printf.ksprintf (fun line -> s.notes <- line :: s.notes) fmt

let check s ok fmt =
  Printf.ksprintf
    (fun what ->
      s.attempted <- s.attempted + 1;
      if not ok then begin
        s.failed <- s.failed + 1;
        Printf.eprintf "e2e: FAILED %s\n%!" what
      end)
    fmt

type env = {
  logitdyn : string;
  logitdynd : string;
  tmp : string;  (** private scratch directory inside the checkout *)
  seed : int;
  seconds : float;
}

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let counter = ref 0

let scratch env prefix =
  incr counter;
  Filename.concat env.tmp (Printf.sprintf "%s-%d" prefix !counter)

(* Fresh stores created per store used: set-up is a few milliseconds,
   so one sample each would leave the median to chance. *)
let store_setup_reps = 3

(* A private store created by [logitdyn store verify] — each creation
   a set-up sample — the last of them handed to [use]. *)
let with_store env s use =
  let fresh_store () =
    let dir = scratch env "store" in
    let o = Child.run ~prog:env.logitdyn ~args:[ "store"; "verify"; "--store"; dir ] in
    s.setup <- o.seconds :: s.setup;
    check s (o.ok && o.out = "0 object(s) checked, 0 corrupt\n") "fresh store %s" dir;
    dir
  in
  for _ = 2 to store_setup_reps do
    rm_rf (fresh_store ())
  done;
  let dir = fresh_store () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> use dir)

(* Runs one CLI operation against [store] and checks its output, less
   the store line, against [golden]; returns its time in seconds and
   the store counts. *)
let cli_op env s ~args ~store ~golden =
  let o = Child.run ~prog:env.logitdyn ~args:(args @ [ "--store"; store ]) in
  let body, counts = Parse.split_store o.out in
  check s (o.ok && body = golden) "%s output matches golden" (String.concat " " args);
  (o.seconds, o.peak_kb, counts)

(* One operation on a fresh store: a cold sample, and the program's
   peak resident set. *)
let cold_op env s ~args ~store ~golden =
  let seconds, peak_kb, counts = cli_op env s ~args ~store ~golden in
  s.cold <- seconds :: s.cold;
  Option.iter (fun kb -> s.rss_kb <- kb :: s.rss_kb) peak_kb;
  (match counts with
  | Some c ->
      check s (c.hits = 0 && c.misses > 0 && c.writes = c.misses) "cold store line"
  | None -> check s false "cold run printed no store line");
  counts

(* --- mixing_spectral / mixing_panel ------------------------------------ *)

(* The independent route for the spectral workload: the in-process
   panel sweep over every start, which never touches the
   eigensolver the CLI answers through. *)
let panel_t_mix ~n ~beta =
  match Serve.Catalog.find "ring" with
  | None -> failwith "catalog has no ring game"
  | Some spec -> (
      match spec.Serve.Catalog.build ~n ~beta with
      | _, None -> failwith "ring game has no potential"
      | game, Some phi ->
          let chain = Logit.Logit_dynamics.chain game ~beta in
          let pi = Logit.Gibbs.stationary (Games.Game.space game) phi ~beta in
          Markov.Mixing.mixing_time chain pi
            ~starts:(List.init (Games.Game.size game) Fun.id))

let mixing env ~n ~betas ~oracle =
  let s = fresh () in
  let golden =
    List.map (fun beta -> (beta, Golden.read (Golden.mixing_file ~n ~beta))) betas
  in
  if oracle then
    List.iter
      (fun (beta, g) ->
        let cli = Option.map snd (Parse.t_mix g) in
        check s
          (cli <> None && cli = panel_t_mix ~n ~beta)
          "n=%d beta=%g: spectral t_mix equals the in-process panel t_mix" n beta)
      golden;
  let order = Schedule.shuffled ~seed:env.seed betas in
  let start = Common.Clock.monotonic_ns () in
  (* Whole cycles only, so every run weighs each input the same; a
     cycle starts only if one more, as long as the last, fits. *)
  let rec cycle () =
    let c0 = Common.Clock.monotonic_ns () in
    List.iter
      (fun beta ->
        let args = Golden.mixing_args ~n ~beta in
        let golden = List.assoc beta golden in
        with_store env s (fun store -> ignore (cold_op env s ~args ~store ~golden)))
      order;
    let last = Common.Clock.span_s ~since:c0 in
    if Common.Clock.span_s ~since:start +. last <= env.seconds then cycle ()
  in
  cycle ();
  (* The store holds the chain and pi, not the eigendecomposition or
     the panel, so a second invocation would cost what the first did:
     every invocation is cold, and the latency metrics are taken over
     the same samples as wall_s. *)
  s.latency <- s.cold;
  s.typical <- s.cold;
  note s "inputs: ring n=%d, beta order %s; %d invocations" n
    (String.concat "," (List.map (Printf.sprintf "%g") order))
    (List.length s.cold);
  s

(* --- experiments -------------------------------------------------------- *)

(* A cold run and its warm re-runs take about this long; the run makes
   seconds / cycle_s of them. *)
let cycle_s = 2.0

(* Warm re-runs per run, spread over its cycles: with 1000, p99 keeps
   ten samples beyond it in every run. *)
let warm_runs = 1000

let experiments env =
  let s = fresh () in
  let golden = Golden.read Golden.experiments_file in
  let args = Golden.experiments_args @ [ "-j"; "2" ] in
  let cycles = Int.max 1 (int_of_float (env.seconds /. cycle_s)) in
  for _ = 1 to cycles do
    with_store env s (fun store ->
        let cold = cold_op env s ~args ~store ~golden in
        for _ = 1 to (warm_runs + cycles - 1) / cycles do
          let seconds, _, warm = cli_op env s ~args ~store ~golden in
          s.latency <- seconds :: s.latency;
          match (cold, warm) with
          | Some cold, Some c ->
              check s
                (c.misses = 0 && c.writes = 0 && c.hits = cold.misses)
                "warm store line"
          | _ -> check s false "warm run printed no store line"
        done)
  done;
  s.typical <- s.latency;
  note s "%d cold runs, %d warm re-runs" cycles (List.length s.latency);
  s

(* --- daemon -------------------------------------------------------------- *)

let rate = 200.

(* One daemon serves the whole load, offered in this many parts. In the
   pause before each part after the first, a second daemon is started,
   warmed and stopped, so set-up and cold samples are spread over the
   run: on the VM of the baseline, the warm-up of a fresh daemon takes
   about 0.125 s in some stretches and 0.21 s in others, a stretch
   lasting from seconds to minutes, and samples taken back to back all
   land in one stretch. *)
let load_parts = 12

(* Replies the daemon must reproduce bit for bit: every query it can
   be sent, evaluated serially in process before any timing starts,
   and checked against the golden digests. *)
let expected_replies s =
  let engine = Serve.Engine.create () in
  let golden = Golden.daemon_digest () in
  let table = Hashtbl.create 512 in
  List.iter
    (fun q ->
      let r = Serve.Engine.eval engine q in
      Hashtbl.replace table q r;
      check s (golden q = Some (Golden.reply_digest r)) "in-process %s matches golden"
        (Schedule.describe q))
    Schedule.all_queries;
  fun q -> Hashtbl.find table q

let is_reply ~expected ~req_id q frame =
  frame = P.encode_response { P.req_id; result = expected q }

let daemon env =
  let s = fresh () in
  let expected = expected_replies s in
  let decks =
    Int.max 1 (int_of_float (rate *. env.seconds /. float_of_int Schedule.deck_size))
  in
  let requests = Array.of_list (Schedule.traffic ~seed:env.seed ~rate ~decks) in
  (* Set-up runs from the spawn until the daemon listens and both
     connections are open; the cold operation is the warm-up that
     follows, bringing all 24 chains into service. *)
  let start_warmed () =
    let socket = scratch env "d" ^ ".sock" in
    let t0 = Common.Clock.monotonic_ns () in
    let d = Daemon.start ~prog:env.logitdynd ~socket in
    s.setup <- Common.Clock.span_s ~since:t0 :: s.setup;
    match
      let w0 = Common.Clock.monotonic_ns () in
      List.iteri
        (fun i e ->
          let q = Schedule.warmup_query e in
          let frame = Daemon.call d ~id:(i + 1) q in
          check s (is_reply ~expected ~req_id:(i + 1) q frame) "warm-up %s"
            (Schedule.describe q))
        Schedule.entries;
      s.cold <- Common.Clock.span_s ~since:w0 :: s.cold
    with
    | () -> d
    | exception e ->
        Daemon.kill d;
        raise e
  in
  (* The sender and the daemons share one CPU, the daemons at the
     lowest priority (see Daemon.start). Left to the kernel, they
     shared one in all but one of 31 runs on the VM of the baseline
     (Stationary median 0.12 to 0.16 ms, sender lateness p99 about
     3 ms); in that run they did not (0.21 ms and 0.35 ms), and pinned
     apart they read 0.19 to 0.29 ms from run to run. *)
  Child.on_one_cpu @@ fun () ->
  let d = start_warmed () in
  Fun.protect ~finally:(fun () -> Daemon.kill d) @@ fun () ->
  let per_part = Array.length requests / load_parts in
  let part k =
    if k > 0 then check s (Daemon.stop (start_warmed ())) "second daemon drains";
    let reqs = Array.sub requests (k * per_part) per_part in
    let origin = reqs.(0).Schedule.due_ns in
    let rebase (r : Schedule.request) = { r with due_ns = Int64.sub r.due_ns origin } in
    let reqs = Array.map rebase reqs in
    let load = Daemon.open_loop d reqs in
    Array.iteri
      (fun i frame ->
        let q = reqs.(i).query in
        check s (is_reply ~expected ~req_id:(i + 1) q frame) "reply %d (%s)" (i + 1)
          (Schedule.describe q))
      load.frames;
    (Array.mapi (fun i ms -> (reqs.(i).query, ms)) load.latency_ms, load.lateness_ms)
  in
  let parts = List.init load_parts part in
  let st = Daemon.stats d in
  check s
    (st.P.rejected = 0 && st.expired = 0 && st.failed = 0)
    "no rejected, expired or failed";
  Option.iter (fun kb -> s.rss_kb <- kb :: s.rss_kb) (Daemon.peak_kb d);
  check s (Daemon.stop d) "daemon drains and exits 0";
  (* A fresh daemon's warm-up is fast or slow depending on the stretch
     it falls in (see load_parts), so the median of the run's warm-ups
     jumps with the share that fell in slow stretches; their mean moves
     in proportion to it. wall_s is that mean. *)
  let warmups = Stats.sorted s.cold in
  note s "warm-ups: %d, from %.3f s to %.3f s, median %.3f s; wall_s is their mean"
    (Array.length warmups) warmups.(0)
    warmups.(Array.length warmups - 1)
    (Stats.median s.cold);
  s.cold <- [ List.fold_left ( +. ) 0. s.cold /. float_of_int (Array.length warmups) ];
  let replies = Array.concat (List.map fst parts) in
  let of_kind kind =
    Array.to_list replies
    |> List.filter_map (fun (q, ms) ->
           if kind = None || kind = Some (Schedule.kind q) then Some (ms /. 1e3) else None)
  in
  s.latency <- of_kind None;
  (* The median over all requests lies on the step between Stationary
     replies that found the loop idle and every other reply: with the
     60/15/25 mix, p48 is about 0.2 ms and p52 about 0.45 ms, and where
     between them p50 lands changes from one seed to the next. The
     cheapest kind's median is steady and is the one the serve layers
     set. *)
  s.typical <- of_kind (Some "stationary");
  let median_ms xs = 1e3 *. Stats.median xs in
  let all = Stats.sorted (List.map (fun x -> 1e3 *. x) s.latency) in
  note s
    "latency medians: stationary %.3f ms, simulate %.3f ms, mixing %.3f ms; all \
     requests %.3f ms (p45 %.3f, p55 %.3f; not a metric, see workloads.ml)"
    (median_ms s.typical)
    (median_ms (of_kind (Some "simulate")))
    (median_ms (of_kind (Some "mixing")))
    (Stats.percentile all ~per_mille:500)
    (Stats.percentile all ~per_mille:450)
    (Stats.percentile all ~per_mille:550);
  let lateness = Stats.sorted (Array.to_list (Array.concat (List.map snd parts))) in
  let late_p99 = Stats.percentile lateness ~per_mille:990 in
  note s
    "one daemon offered %d requests at %.0f rps on 2 connections, in %d parts; %d \
     daemon starts, each warmed on %d chains"
    (Array.length requests) rate load_parts (List.length s.setup)
    (List.length Schedule.entries);
  note s
    "sender lateness p50 %.3f ms, p99 %.3f ms, max %.3f ms (the run is invalid above 5 \
     ms at p99)"
    (Stats.percentile lateness ~per_mille:500) late_p99
    lateness.(Array.length lateness - 1);
  note s "daemon stats: served=%d batches=%d max_batch=%d chain cache hits=%d misses=%d"
    st.P.served st.P.batches st.P.max_batch st.P.chain_cache_hits st.P.chain_cache_misses;
  if late_p99 > 5. then
    failwith (Printf.sprintf "invalid run: sender lateness p99 %.3f ms" late_p99);
  s

let run env = function
  | "mixing_spectral" ->
      mixing env ~n:Schedule.spectral_n ~betas:Schedule.spectral_betas ~oracle:true
  | "mixing_panel" ->
      mixing env ~n:Schedule.panel_n ~betas:Schedule.panel_betas ~oracle:false
  | "experiments" -> experiments env
  | "daemon" -> daemon env
  | w -> invalid_arg ("unknown workload " ^ w)

(* The end-to-end metrics of one run, in Metrics.end_to_end order. *)
let metrics s =
  let value name xs ~scale =
    let m = Option.get (Metrics.find name) in
    let st = Stats.summarize (List.map (fun x -> x *. scale) xs) in
    { Results.metric = m; median = st.median; q1 = st.q1; q3 = st.q3; n = st.n }
  in
  let p99 =
    let ms = Stats.sorted (List.map (fun x -> x *. 1e3) s.latency) in
    let _, v = Stats.tail ms in
    {
      Results.metric = Option.get (Metrics.find "p99_ms");
      median = v;
      q1 = v;
      q3 = v;
      n = Array.length ms;
    }
  in
  [
    value "setup_s" s.setup ~scale:1.;
    value "wall_s" s.cold ~scale:1.;
    value "p50_ms" s.typical ~scale:1e3;
    p99;
    value "peak_rss_mb" (List.map float_of_int s.rss_kb) ~scale:(1. /. 1024.);
  ]
