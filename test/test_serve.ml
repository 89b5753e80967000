(* The serve layer: CLI flag conflicts, wire protocol strictness, the
   panel-coalescing scheduler's bit-identity against serial
   evaluation, and the server's admission / deadline / drain
   behaviour over a real Unix-domain socket. *)

module P = Serve.Protocol

let check = Alcotest.(check bool)

(* --- Cli_flags ---------------------------------------------------------- *)

let flags_ok dir no_cache = Ok { Serve.Cli_flags.dir; no_cache }

let cli_flags_matrix () =
  let resolve stores no_cache_count =
    Serve.Cli_flags.resolve_store ~stores ~no_cache_count
  in
  check "defaults" true (resolve [] 0 = flags_ok None false);
  check "one store" true (resolve [ "/tmp/s" ] 0 = flags_ok (Some "/tmp/s") false);
  check "no-cache" true (resolve [] 1 = flags_ok None true);
  check "duplicate store rejected" true
    (Result.is_error (resolve [ "/tmp/a"; "/tmp/b" ] 0));
  check "same store twice still rejected" true
    (Result.is_error (resolve [ "/tmp/a"; "/tmp/a" ] 0));
  check "store + no-cache rejected" true
    (Result.is_error (resolve [ "/tmp/s" ] 1));
  check "duplicate no-cache rejected" true (Result.is_error (resolve [] 2))

(* --beta vs --betas: single point, grid, or neither — never both. The
   grid points must be the exact floats the per-point path would see
   ([lo +. float i *. step], no accumulation), so per-β output stays
   byte-identical. *)
let cli_flags_betas () =
  let resolve beta betas = Serve.Cli_flags.resolve_betas ~beta ~betas in
  check "neither defaults to beta 1.0" true
    (resolve None None = Ok (Serve.Cli_flags.Beta_single 1.0));
  check "single point" true
    (resolve (Some 0.5) None = Ok (Serve.Cli_flags.Beta_single 0.5));
  check "conflict rejected" true
    (Result.is_error (resolve (Some 0.5) (Some "0.1:1.0:0.1")));
  (match resolve None (Some "0.1:0.4:0.1") with
  | Ok (Serve.Cli_flags.Beta_grid pts) ->
      check "inclusive endpoint" true (List.length pts = 4);
      List.iteri
        (fun i p ->
          check
            (Printf.sprintf "grid point %d bit-exact" i)
            true
            (Int64.bits_of_float p
            = Int64.bits_of_float (0.1 +. (float_of_int i *. 0.1))))
        pts
  | _ -> Alcotest.fail "grid should parse");
  (match resolve None (Some "2.0:2.0:0.5") with
  | Ok (Serve.Cli_flags.Beta_grid [ p ]) ->
      (* lint: allow float-equality — the one-point grid must be exactly lo *)
      check "degenerate grid" true (p = 2.0)
  | _ -> Alcotest.fail "lo = hi is a one-point grid");
  List.iter
    (fun s ->
      check (Printf.sprintf "%S rejected" s) true
        (Result.is_error (resolve None (Some s))))
    [ "0.1:1.0"; "0.1:1.0:0"; "0.1:1.0:-0.1"; "1.0:0.1:0.1"; "-0.5:1.0:0.5";
      "a:b:c"; "" ]

(* --- Protocol ------------------------------------------------------------ *)

let all_queries =
  [
    P.Mixing { game = "ring"; n = 6; beta = 1.5; eps = 0.25; replicas = 0; seed = 1 };
    P.Mixing { game = "curve"; n = 8; beta = 0.125; eps = 0.01; replicas = 40; seed = 9 };
    P.Stationary { game = "clique"; n = 5; beta = 2.0 };
    P.Hitting { game = "path"; n = 4; beta = 0.5 };
    P.Simulate { game = "pd"; n = 2; beta = 1.0; steps = 300; seed = 3 };
    P.Sample { game = "ring"; n = 6; beta = 1.0; count = 50; seed = 4 };
    P.Stats;
  ]

let request_roundtrip () =
  List.iteri
    (fun i query ->
      let deadline_ms = if i mod 2 = 0 then Some (17 * (i + 1)) else None in
      let req = { P.id = 1000 + i; deadline_ms; query } in
      match P.decode_request (P.encode_request req) with
      | Ok req' ->
          check (Printf.sprintf "request %d round-trips" i) true (req' = req)
      | Error msg -> Alcotest.failf "request %d rejected: %s" i msg)
    all_queries

let all_replies =
  [
    P.Mixing_r
      {
        P.size = 64;
        reversible = true;
        route = P.Spectral;
        tmix = Some 41;
        empirical = Some (41, 0.21);
        barrier = Some { P.d_global = 4.; d_local = 2.; zeta = 2. };
      };
    P.Mixing_r
      {
        P.size = 1024;
        reversible = false;
        route = P.Panel;
        tmix = None;
        empirical = None;
        barrier = None;
      };
    P.Stationary_r [| 0.25; 0.5; 0.125; 0.125 |];
    P.Hitting_r
      { P.size = 16; argmin = 0; phi_min = -4.; worst_hitting = 8.9; hit_tmix = Some 14 };
    P.Simulate_r [| 0; 3; 1; 2 |];
    P.Sample_r { samples = [| 5; 7 |]; max_window = 32 };
    P.Stats_r
      {
        P.served = 10; rejected = 1; expired = 2; failed = 0; batches = 4;
        max_batch = 8; panel_steps = 900; queue_peak = 8; chain_cache_hits = 6;
        chain_cache_misses = 2; store_hits = 1; store_misses = 1;
      };
  ]

let response_roundtrip () =
  let results =
    List.map (fun r -> Ok r) all_replies
    @ [
        Error P.Overloaded;
        Error P.Deadline_exceeded;
        Error (P.Bad_request "unknown game \"foo\"");
        Error (P.Server_error "boom");
      ]
  in
  List.iteri
    (fun i result ->
      let resp = { P.req_id = i; result } in
      match P.decode_response (P.encode_response resp) with
      | Ok resp' ->
          check (Printf.sprintf "response %d round-trips" i) true (resp' = resp)
      | Error msg -> Alcotest.failf "response %d rejected: %s" i msg)
    results

let corrupt_frames_rejected () =
  let req =
    { P.id = 7; deadline_ms = None; query = P.Stationary { game = "ring"; n = 4; beta = 1. } }
  in
  let frame = P.encode_request req in
  (* A single flipped payload byte must trip the CRC. *)
  let flipped = Bytes.of_string frame in
  let mid = Bytes.length flipped / 2 in
  Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 0x40));
  check "bit flip rejected" true
    (Result.is_error (P.decode_request (Bytes.to_string flipped)));
  check "truncation rejected" true
    (Result.is_error
       (P.decode_request (String.sub frame 0 (String.length frame - 3))));
  check "trailing bytes rejected" true
    (Result.is_error (P.decode_request (frame ^ "\x00")));
  (* Kind confusion: a response frame is not a request. *)
  let resp_frame = P.encode_response { P.req_id = 7; result = Error P.Overloaded } in
  check "response frame is not a request" true
    (Result.is_error (P.decode_request resp_frame));
  check "request frame is not a response" true
    (Result.is_error (P.decode_response frame))

let reader_reassembles_byte_by_byte () =
  let reqs =
    List.mapi
      (fun i query -> { P.id = i + 1; deadline_ms = None; query })
      [ P.Stats; P.Hitting { game = "ring"; n = 4; beta = 2. } ]
  in
  let buf = Buffer.create 256 in
  List.iter (fun r -> P.write_framed buf (P.encode_request r)) reqs;
  let stream = Buffer.contents buf in
  let reader = P.Reader.create () in
  let out = ref [] in
  String.iter
    (fun ch ->
      P.Reader.feed reader (Bytes.make 1 ch) ~len:1;
      match P.Reader.next reader with
      | Ok (Some frame) -> out := frame :: !out
      | Ok None -> ()
      | Error msg -> Alcotest.failf "reader error: %s" msg)
    stream;
  let decoded = List.rev_map (fun f -> P.decode_request f) !out in
  check "both frames recovered" true (decoded = List.map (fun r -> Ok r) reqs)

let reader_rejects_oversized_prefix () =
  let reader = P.Reader.create () in
  let evil = Bytes.create 4 in
  Bytes.set_int32_le evil 0 0x7fffffffl;
  P.Reader.feed reader evil ~len:4;
  check "oversized prefix is an error" true (Result.is_error (P.Reader.next reader));
  (* The error is sticky: the stream is unrecoverable. *)
  P.Reader.feed reader (Bytes.make 8 '\x00') ~len:8;
  check "error is sticky" true (Result.is_error (P.Reader.next reader))

(* --- Scheduler ----------------------------------------------------------- *)

(* 8 same-chain mixing queries with distinct eps (one with an
   empirical estimate): a coalescing group that settles at genuinely
   different steps. *)
let group_queries =
  List.mapi
    (fun i eps ->
      let replicas = if i = 3 then 5 else 0 in
      P.Mixing { game = "ring"; n = 6; beta = 1.0; eps; replicas; seed = 11 })
    [ 0.3; 0.25; 0.2; 0.15; 0.12; 0.1; 0.08; 0.05 ]

let jobs_of queries =
  List.mapi (fun i q -> { Serve.Scheduler.tag = (); req_id = i; deadline_ns = None; query = q }) queries

let serial_outcomes queries =
  (* A fresh engine per reference run: the serial arm must not see the
     batch engine's caches. *)
  let engine = Serve.Engine.create ~spectral_cutoff:0 () in
  List.map (fun q -> Serve.Engine.eval engine q) queries

let coalescing_bit_identity () =
  let reference = serial_outcomes group_queries in
  check "reference answers settle" true
    (List.for_all Result.is_ok reference);
  List.iter
    (fun domains ->
      let run pool =
        let engine = Serve.Engine.create ?pool ~spectral_cutoff:0 () in
        let stats = Serve.Scheduler.stats_zero () in
        let outcomes =
          Serve.Scheduler.run_batch engine stats (jobs_of group_queries)
          |> List.map snd
        in
        check
          (Printf.sprintf "one coalesced batch (pool=%d)" domains)
          true
          (stats.Serve.Scheduler.batches = 1
          && stats.Serve.Scheduler.max_batch = List.length group_queries
          && stats.Serve.Scheduler.panel_steps > 0);
        check
          (Printf.sprintf "bit-identical to serial (pool=%d)" domains)
          true (outcomes = reference)
      in
      if domains <= 1 then run None
      else Exec.Pool.with_pool ~domains (fun pool -> run (Some pool)))
    [ 1; 2; 4 ]

let mixed_batch_order_and_routes () =
  let queries =
    [
      P.Mixing { game = "ring"; n = 6; beta = 1.0; eps = 0.25; replicas = 0; seed = 1 };
      P.Stationary { game = "ring"; n = 4; beta = 1.0 };
      P.Mixing { game = "ring"; n = 4; beta = 2.0; eps = 0.2; replicas = 0; seed = 1 };
      P.Hitting { game = "ring"; n = 4; beta = 1.0 };
      P.Mixing { game = "ring"; n = 6; beta = 1.0; eps = 0.1; replicas = 0; seed = 1 };
      P.Mixing { game = "nope"; n = 4; beta = 1.0; eps = 0.25; replicas = 0; seed = 1 };
    ]
  in
  let reference = serial_outcomes queries in
  let engine = Serve.Engine.create ~spectral_cutoff:0 () in
  let stats = Serve.Scheduler.stats_zero () in
  let answered = Serve.Scheduler.run_batch engine stats (jobs_of queries) in
  check "input order preserved" true
    (List.map (fun (j, _) -> j.Serve.Scheduler.req_id) answered = [ 0; 1; 2; 3; 4; 5 ]);
  let outcomes = List.map snd answered in
  check "mixed batch matches serial" true
    (List.map2
       (fun got want ->
         match (got, want) with
         (* Engine.eval reports an unknown game as Bad_request too. *)
         | Error (P.Bad_request _), Error (P.Bad_request _) -> true
         | g, w -> g = w)
       outcomes reference
    |> List.for_all Fun.id);
  check "unknown game is Bad_request" true
    (match List.nth outcomes 5 with Error (P.Bad_request _) -> true | _ -> false)

let dead_on_arrival_deadline () =
  let engine = Serve.Engine.create ~spectral_cutoff:0 () in
  let stats = Serve.Scheduler.stats_zero () in
  let past = Int64.sub (Common.Clock.monotonic_ns ()) 1_000_000L in
  let mk i query = { Serve.Scheduler.tag = (); req_id = i; deadline_ns = Some past; query } in
  let jobs =
    [
      mk 0 (P.Mixing { game = "ring"; n = 6; beta = 1.0; eps = 0.25; replicas = 0; seed = 1 });
      mk 1 (P.Hitting { game = "ring"; n = 4; beta = 1.0 });
    ]
  in
  let outcomes = Serve.Scheduler.run_batch engine stats jobs |> List.map snd in
  check "expired panel job gets the typed error" true
    (List.nth outcomes 0 = Error P.Deadline_exceeded);
  check "expired serial job gets the typed error" true
    (List.nth outcomes 1 = Error P.Deadline_exceeded)

let spectral_group_identity () =
  (* Default cutoff: ring n=6 (64 states, reversible) takes the shared
     eigendecomposition; answers still match serial evaluation. *)
  let queries =
    List.map
      (fun eps -> P.Mixing { game = "ring"; n = 6; beta = 1.0; eps; replicas = 0; seed = 1 })
      [ 0.25; 0.1; 0.05 ]
  in
  let serial_engine = Serve.Engine.create () in
  let reference = List.map (fun q -> Serve.Engine.eval serial_engine q) queries in
  let engine = Serve.Engine.create () in
  let stats = Serve.Scheduler.stats_zero () in
  let outcomes = Serve.Scheduler.run_batch engine stats (jobs_of queries) |> List.map snd in
  check "spectral route" true
    (match List.nth outcomes 0 with
    | Ok (P.Mixing_r m) -> m.P.route = P.Spectral
    | _ -> false);
  check "no panel steps spent" true (stats.Serve.Scheduler.panel_steps = 0);
  check "bit-identical to serial" true (outcomes = reference)

(* Thresholds that d(t) >= 0 never meets. *)
let bad_epsilons = [ 0.; -0.; -0.25; nan; neg_infinity ]

let is_bad_request = function Error (P.Bad_request _) -> true | _ -> false

(* A bad eps is answered in place and joins no group: its valid
   neighbours of the same (game, n), one β and two, still settle with
   their serial answers. The short budget keeps a regression (a bad
   eps swept to the end) from stalling the suite. *)
let nonpositive_eps_batch () =
  let mixing beta eps = P.Mixing { game = "ring"; n = 6; beta; eps; replicas = 0; seed = 1 } in
  let good = [ mixing 1.0 0.25; mixing 0.5 0.25 ] in
  let queries = good @ List.map (mixing 1.0) bad_epsilons in
  let reference = serial_outcomes good in
  let engine = Serve.Engine.create ~spectral_cutoff:0 ~max_steps:200 () in
  let stats = Serve.Scheduler.stats_zero () in
  let outcomes = Serve.Scheduler.run_batch engine stats (jobs_of queries) |> List.map snd in
  check "valid queries = serial" true (List.filteri (fun i _ -> i < 2) outcomes = reference);
  check "every bad eps is Bad_request" true
    (List.for_all is_bad_request (List.filteri (fun i _ -> i >= 2) outcomes))

(* --- Symmetry-reduced start sets ------------------------------------------ *)

let reduction_epsilons = [ 0.1; 0.25 ]

(* Step budget of the panel-route engine below: large enough that most
   grid points settle, small enough to keep the all-starts reference
   cheap. *)
let reduction_budget = 2000

(* d(0), d(1), … of the all-starts panel, up to [steps] or the first
   d(t) <= min eps. *)
let full_panel_curve e ~steps =
  let curve = ref [] in
  Markov.Mixing.panel_sweep e.Serve.Engine.chain e.Serve.Engine.pi
    ~starts:(Serve.Engine.all_starts e) ~decide:(fun ~step ~worst ->
      curve := worst :: !curve;
      if step >= steps || worst <= List.fold_left Float.min 1. reduction_epsilons then
        Some ()
      else None);
  Array.of_list (List.rev !curve)

(* The least t with d(t) <= eps on a curve, if the curve reaches it. *)
let tmix_of_curve curve eps =
  let rec go t =
    if t >= Array.length curve then None else if curve.(t) <= eps then Some t else go (t + 1)
  in
  go 0

let mixing_tmix engine q =
  match Serve.Engine.eval engine q with
  | Ok (P.Mixing_r m) -> m.P.tmix
  | _ -> Alcotest.fail "mixing query failed"

(* Every catalog game at every n <= 7 its builder accepts: the
   engine's answers, which evolve one start per verified orbit, equal
   Markov.Mixing over every state, on the default route and on the
   panel route (a budget of [reduction_budget] steps). The all-starts
   panel is swept as far as the engine's answers reach: its d(t) is a
   maximum over a superset of the same bit-identical rows, so it is
   never below the reduced one, and where the reduced panel does not
   settle within the budget the full one cannot either. hit_tmix is
   checked wherever that sweep settles at eps = 0.25 (elsewhere its
   2 000 000-step budget makes the reference too slow for a unit
   test). *)
let reduced_equals_full () =
  let default = Serve.Engine.create () in
  let panel = Serve.Engine.create ~spectral_cutoff:0 ~max_steps:reduction_budget () in
  let compared = ref 0 and hitting = ref 0 in
  List.iter
    (fun spec ->
      let game = spec.Serve.Catalog.id in
      for n = 0 to 7 do
        List.iter
          (fun beta ->
            match Serve.Engine.entry default ~game ~n ~beta with
            | Error _ -> ()
            | Ok e ->
                let name eps what =
                  Printf.sprintf "%s n=%d beta=%g eps=%g %s" game n beta eps what
                in
                let query eps = P.Mixing { game; n; beta; eps; replicas = 0; seed = 0 } in
                let pi = e.Serve.Engine.pi and all = Serve.Engine.all_starts e in
                List.iter
                  (fun eps ->
                    let full =
                      if Serve.Engine.spectral_route default e then
                        Markov.Mixing.mixing_time_from_decomposition ~eps
                          ~decomposition:(Serve.Engine.decomposition e) pi ~starts:all
                      else
                        Markov.Mixing.mixing_time ~eps
                          ~max_steps:Serve.Engine.default_max_steps e.Serve.Engine.chain
                          pi ~starts:all
                    in
                    Alcotest.(check (option int))
                      (name eps "default route") full (mixing_tmix default (query eps)))
                  reduction_epsilons;
                let reduced =
                  List.map (fun eps -> mixing_tmix panel (query eps)) reduction_epsilons
                in
                let steps =
                  List.fold_left (fun m t -> Int.max m (Option.value t ~default:0)) 0 reduced
                in
                let curve = full_panel_curve e ~steps in
                List.iter2
                  (fun eps reduced ->
                    Alcotest.(check (option int))
                      (name eps "panel route") (tmix_of_curve curve eps) reduced;
                    incr compared)
                  reduction_epsilons reduced;
                match (e.Serve.Engine.potential, tmix_of_curve curve 0.25) with
                | Some _, Some full -> (
                    match Serve.Engine.eval default (P.Hitting { game; n; beta }) with
                    | Ok (P.Hitting_r h) ->
                        Alcotest.(check (option int))
                          (name 0.25 "hit_tmix") (Some full) h.P.hit_tmix;
                        incr hitting
                    | _ -> Alcotest.fail (name 0.25 "hitting query failed"))
                | _ -> ())
          [ 0.25; 1.; 4. ]
      done)
    Serve.Catalog.all;
  (* 48 accepted (game, n) pairs (pd and matching-pennies ignore n and
     take every n), 3 beta, 2 eps. *)
  check "every grid point compared" true (!compared = 48 * 3 * 2);
  check "hit_tmix compared on most points" true (!hitting > 100)

(* The engine rejects a bad eps before it builds a chain, whatever the
   route. *)
let nonpositive_eps_rejected () =
  List.iter
    (fun spectral_cutoff ->
      let engine = Serve.Engine.create ~spectral_cutoff ~max_steps:200 () in
      List.iter
        (fun eps ->
          check
            (Printf.sprintf "eps=%g is Bad_request" eps)
            true
            (is_bad_request
               (Serve.Engine.eval engine
                  (P.Mixing { game = "ring"; n = 6; beta = 1.0; eps; replicas = 0; seed = 1 }))))
        bad_epsilons;
      check "no chain built" true (Serve.Engine.cache_stats engine = (0, 0)))
    [ 0; Serve.Engine.default_spectral_cutoff ]

(* Four β of one (game, n) in one batch: a family group, whose shared
   start set must give each β its serial answer and the all-starts
   panel answer. *)
let family_group_reduced () =
  let betas = [ 0.25; 0.5; 1.; 1.5 ] in
  let queries =
    List.map
      (fun beta -> P.Mixing { game = "ring"; n = 6; beta; eps = 0.25; replicas = 0; seed = 1 })
      betas
  in
  let reference = serial_outcomes queries in
  let engine = Serve.Engine.create ~spectral_cutoff:0 () in
  let stats = Serve.Scheduler.stats_zero () in
  let outcomes = Serve.Scheduler.run_batch engine stats (jobs_of queries) |> List.map snd in
  check "one fused sweep" true
    (stats.Serve.Scheduler.batches = 1 && stats.Serve.Scheduler.panel_steps > 0);
  check "family group = serial" true (outcomes = reference);
  List.iter2
    (fun beta outcome ->
      let e = Result.get_ok (Serve.Engine.entry engine ~game:"ring" ~n:6 ~beta) in
      check (Printf.sprintf "beta=%g: 8 orbit starts" beta) true
        (List.length (Serve.Engine.starts e) = 8);
      let full =
        Markov.Mixing.mixing_time ~max_steps:Serve.Engine.default_max_steps
          e.Serve.Engine.chain e.Serve.Engine.pi ~starts:(Serve.Engine.all_starts e)
      in
      check (Printf.sprintf "beta=%g: family = all-starts panel" beta) true
        (match outcome with Ok (P.Mixing_r m) -> m.P.tmix = full | _ -> false))
    betas outcomes

(* --- Server (socket level) ----------------------------------------------- *)

let socket_counter = ref 0

let fresh_socket () =
  incr socket_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "logitdyn-test-%d-%d.sock" (Unix.getpid ()) !socket_counter)

let with_server ?max_queue ?spectral_cutoff f =
  let socket_path = fresh_socket () in
  let engine = Serve.Engine.create ?spectral_cutoff () in
  let server = Serve.Server.create ?max_queue ~engine ~socket_path () in
  let d = Domain.spawn (fun () -> Serve.Server.serve_forever server) in
  Fun.protect
    ~finally:(fun () ->
      Serve.Server.stop server;
      Domain.join d;
      try Unix.unlink socket_path with Unix.Unix_error _ -> ())
  @@ fun () -> f ~socket_path server

let overload_rejection () =
  with_server ~max_queue:0 @@ fun ~socket_path _server ->
  let q = P.Mixing { game = "ring"; n = 4; beta = 1.0; eps = 0.25; replicas = 0; seed = 1 } in
  (match Serve.Client.query ~socket_path q with
  | Ok (Error P.Overloaded) -> ()
  | other ->
      Alcotest.failf "expected Overloaded, got %s"
        (match other with
        | Ok (Ok _) -> "a reply"
        | Ok (Error _) -> "another error"
        | Error msg -> "transport error: " ^ msg));
  (* Stats bypasses the queue entirely and still counts the reject. *)
  match Serve.Client.query ~socket_path P.Stats with
  | Ok (Ok (P.Stats_r s)) ->
      check "reject counted" true (s.P.rejected = 1);
      check "nothing served through the queue" true (s.P.served = 0)
  | _ -> Alcotest.fail "stats not served under overload"

let cross_client_coalescing () =
  let reference = serial_outcomes group_queries in
  with_server ~spectral_cutoff:0 @@ fun ~socket_path _server ->
  let conns =
    List.map
      (fun _ ->
        match Serve.Client.connect ~socket_path with
        | Ok c -> c
        | Error msg -> Alcotest.failf "connect: %s" msg)
      group_queries
  in
  Fun.protect ~finally:(fun () -> List.iter Serve.Client.close conns)
  @@ fun () ->
  (* All eight requests go out before any response is awaited, so the
     server sees them as concurrent load from eight clients. *)
  List.iter2
    (fun c query ->
      match Serve.Client.send c { P.id = 1; deadline_ms = None; query } with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "send: %s" msg)
    conns group_queries;
  let outcomes =
    List.map
      (fun c ->
        match Serve.Client.recv c with
        | Ok resp -> resp.P.result
        | Error msg -> Alcotest.failf "recv: %s" msg)
      conns
  in
  check "eight clients, bit-identical to eight serial runs" true
    (outcomes = reference)

let drain_answers_in_flight () =
  with_server ~spectral_cutoff:0 @@ fun ~socket_path server ->
  let c =
    match Serve.Client.connect ~socket_path with
    | Ok c -> c
    | Error msg -> Alcotest.failf "connect: %s" msg
  in
  Fun.protect ~finally:(fun () -> Serve.Client.close c)
  @@ fun () ->
  let total = 6 in
  for i = 1 to total do
    let query =
      P.Mixing
        { game = "ring"; n = 6; beta = 1.0; eps = 0.25 /. float_of_int i;
          replicas = 0; seed = 1 }
    in
    match Serve.Client.send c { P.id = i; deadline_ms = None; query } with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "send %d: %s" i msg
  done;
  (* Stop while the pipeline is (at least partly) in flight: the drain
     must still answer every request, in order. *)
  Serve.Server.stop server;
  for i = 1 to total do
    match Serve.Client.recv c with
    | Ok resp ->
        check (Printf.sprintf "response %d in order" i) true (resp.P.req_id = i);
        check (Printf.sprintf "response %d is an answer" i) true
          (Result.is_ok resp.P.result)
    | Error msg -> Alcotest.failf "response %d lost in drain: %s" i msg
  done;
  (* After the drain the server closes the connection. *)
  match Serve.Client.recv c with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected EOF after drain"

let corrupt_bytes_get_bad_request () =
  with_server @@ fun ~socket_path _server ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  (* A well-formed length prefix over junk bytes: framing-level
     corruption the server must answer (id 0), not crash on. *)
  let junk = Bytes.make 12 '\xde' in
  let msg = Bytes.create 16 in
  Bytes.set_int32_le msg 0 12l;
  Bytes.blit junk 0 msg 4 12;
  let _ = Unix.write fd msg 0 16 in
  let reader = P.Reader.create () in
  let buf = Bytes.create 4096 in
  let rec next_frame () =
    match P.Reader.next reader with
    | Ok (Some frame) -> frame
    | Error msg -> Alcotest.failf "client reader: %s" msg
    | Ok None -> (
        match Unix.read fd buf 0 (Bytes.length buf) with
        | 0 -> Alcotest.fail "server closed without responding"
        | n ->
            P.Reader.feed reader buf ~len:n;
            next_frame ())
  in
  match P.decode_response (next_frame ()) with
  | Ok { P.req_id = 0; result = Error (P.Bad_request _) } -> ()
  | Ok _ -> Alcotest.fail "expected an id-0 Bad_request"
  | Error msg -> Alcotest.failf "undecodable response: %s" msg

let suites =
  [
    ( "serve.cli-flags",
      [
        Alcotest.test_case "conflict matrix" `Quick cli_flags_matrix;
        Alcotest.test_case "beta grid resolution" `Quick cli_flags_betas;
      ] );
    ( "serve.protocol",
      [
        Alcotest.test_case "request round-trips" `Quick request_roundtrip;
        Alcotest.test_case "response round-trips" `Quick response_roundtrip;
        Alcotest.test_case "corrupt frames rejected" `Quick corrupt_frames_rejected;
        Alcotest.test_case "reader reassembles byte-by-byte" `Quick
          reader_reassembles_byte_by_byte;
        Alcotest.test_case "reader rejects oversized prefix" `Quick
          reader_rejects_oversized_prefix;
      ] );
    ( "serve.scheduler",
      [
        Alcotest.test_case "coalesced = serial (pools 1/2/4)" `Quick
          coalescing_bit_identity;
        Alcotest.test_case "mixed batch: order and routes" `Quick
          mixed_batch_order_and_routes;
        Alcotest.test_case "expired deadline is typed" `Quick
          dead_on_arrival_deadline;
        Alcotest.test_case "spectral group = serial" `Quick spectral_group_identity;
        Alcotest.test_case "family group on orbit starts = serial" `Quick
          family_group_reduced;
        Alcotest.test_case "eps not > 0 is Bad_request" `Quick nonpositive_eps_batch;
      ] );
    ( "serve.engine",
      [
        Alcotest.test_case "orbit-start answers = all-starts answers" `Quick
          reduced_equals_full;
        Alcotest.test_case "eps not > 0 is Bad_request" `Quick nonpositive_eps_rejected;
      ] );
    ( "serve.server",
      [
        Alcotest.test_case "overload rejection" `Quick overload_rejection;
        Alcotest.test_case "cross-client coalescing" `Quick cross_client_coalescing;
        Alcotest.test_case "drain answers in-flight requests" `Quick
          drain_answers_in_flight;
        Alcotest.test_case "corrupt bytes get Bad_request" `Quick
          corrupt_bytes_get_bad_request;
      ] );
  ]
