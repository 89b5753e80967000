(* End-to-end benchmark of logitdyn and logitdynd. See README.md.

     e2e.exe --workload W --seed N --seconds S --trace 0|1 [--out FILE]
     e2e.exe compare A.json B.json
     e2e.exe golden

   Run from the root of the repository after building bin/ (run.sh
   does both). The last line of a measuring run is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. *)

let usage () =
  prerr_endline
    "usage: e2e.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n\
    \                [--trace-file FILE]\n\
    \       e2e.exe compare A.json B.json\n\
    \       e2e.exe golden";
  exit 2

type opts = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool;
  out : string option;
  trace_file : string;
}

let parse_opts args =
  let int_arg name v =
    match int_of_string_opt v with
    | Some i -> i
    | None ->
        Printf.eprintf "e2e: %s expects an integer, got %S\n" name v;
        exit 2
  in
  let rec go o = function
    | [] -> o
    | "--workload" :: w :: rest -> go { o with workload = Some w } rest
    | "--seed" :: v :: rest -> go { o with seed = int_arg "--seed" v } rest
    | "--seconds" :: v :: rest ->
        go { o with seconds = float_of_int (int_arg "--seconds" v) } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> go { o with trace = v = "1" } rest
    | "--out" :: f :: rest -> go { o with out = Some f } rest
    | "--trace-file" :: f :: rest -> go { o with trace_file = f } rest
    | arg :: _ ->
        Printf.eprintf "e2e: unexpected argument %S\n" arg;
        usage ()
  in
  go
    {
      workload = None;
      seed = 1;
      seconds = 22.;
      trace = false;
      out = None;
      trace_file = Filename.concat ".e2e" "trace.json";
    }
    args

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.is_directory dir -> ()
  end

(* The binaries under test, as dune builds them. *)
let binaries () =
  let bin = Filename.concat "_build" (Filename.concat "default" "bin") in
  let exe name = Filename.concat bin (name ^ ".exe") in
  let logitdyn = exe "logitdyn" and logitdynd = exe "logitdynd" in
  List.iter
    (fun f ->
      if not (Sys.file_exists f) then begin
        Printf.eprintf "e2e: %s not found; build with `dune build` first\n" f;
        exit 2
      end)
    [ logitdyn; logitdynd ];
  (logitdyn, logitdynd)

let with_env o f =
  let logitdyn, logitdynd = binaries () in
  let tmp = Filename.concat ".e2e" (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
  mkdir_p tmp;
  Fun.protect
    ~finally:(fun () -> Workloads.rm_rf tmp)
    (fun () ->
      f { Workloads.logitdyn; logitdynd; tmp; seed = o.seed; seconds = o.seconds })

let print_value ~workload ?samples (v : Results.value) =
  let tail =
    match samples with
    | Some xs -> (
        let a = Stats.sorted xs in
        match Stats.supported ~n:(Array.length a) with
        | Some pm ->
            Printf.sprintf " %s=%.6g" (Stats.label pm) (Stats.percentile a ~per_mille:pm)
        | None -> " (too few samples for a tail)")
    | None -> ""
  in
  Printf.printf "%s %s %.6g %s median=%.6g q1=%.6g q3=%.6g n=%d%s\n" workload
    v.metric.Metrics.name v.median v.metric.unit_ v.median v.q1 v.q3 v.n tail

let finish (run : Results.run) =
  print_endline (Results.result_line run);
  run

let measure o env workload =
  let start = Common.Clock.monotonic_ns () in
  let s = Workloads.run env workload in
  Printf.printf "== %s (seed %d, %.1f s)\n" workload o.seed
    (Common.Clock.span_s ~since:start);
  List.iter (Printf.printf "   %s\n") (List.rev s.Workloads.notes);
  let values = Workloads.metrics s in
  let samples = function
    | "setup_s" -> Some s.setup
    | "wall_s" -> Some s.cold
    | "p50_ms" -> Some (List.map (fun x -> x *. 1e3) s.typical)
    | "p99_ms" -> Some (List.map (fun x -> x *. 1e3) s.latency)
    | _ -> None
  in
  List.iter
    (fun (v : Results.value) -> print_value ~workload ?samples:(samples v.metric.name) v)
    values;
  finish
    {
      Results.workload;
      seed = o.seed;
      trace = false;
      correct = s.failed = 0;
      attempted = s.attempted;
      failed = s.failed;
      values;
    }

let trace o env workload =
  let start = Common.Clock.monotonic_ns () in
  let t = Replay.run env in
  Printf.printf "== trace: every workload replayed in process (seed %d, %.1f s)\n" o.seed
    (Common.Clock.span_s ~since:start);
  List.iter (Printf.printf "   %s\n") (List.rev t.Replay.s.notes);
  Printf.printf "%-34s %7s %12s %12s\n" "span" "count" "total_ms" "self_ms";
  List.iter
    (fun (name, count, total, self) ->
      Printf.printf "%-34s %7d %12.3f %12.3f\n" name count total self)
    (Spans.self_ms t.sp);
  mkdir_p (Filename.dirname o.trace_file);
  Golden.write o.trace_file (Bench.Json.to_string (Spans.chrome t.sp));
  Printf.printf "chrome trace: %s\n" o.trace_file;
  let values =
    List.filter_map
      (fun m ->
        Hashtbl.find_opt t.values m.Metrics.name
        |> Option.map (fun (st : Stats.summary) ->
               let Stats.{ median; q1; q3; n } = st in
               { Results.metric = m; median; q1; q3; n }))
      Metrics.per_layer
  in
  List.iter (print_value ~workload:"trace") values;
  finish
    {
      Results.workload;
      seed = o.seed;
      trace = true;
      correct = t.s.failed = 0;
      attempted = t.s.attempted;
      failed = t.s.failed;
      values;
    }

let run_main o =
  let workloads =
    match o.workload with
    | Some w when List.mem_assoc w Metrics.workloads -> [ w ]
    | Some w ->
        Printf.eprintf "e2e: unknown workload %S (expected %s)\n" w
          (String.concat ", " (List.map fst Metrics.workloads));
        exit 2
    | None -> List.map fst Metrics.workloads
  in
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let runs =
    with_env o (fun env ->
        if o.trace then [ trace o env (String.concat "+" workloads) ]
        else List.map (measure o env) workloads)
  in
  Option.iter (fun f -> Golden.write f (Results.to_string runs)) o.out;
  if List.for_all (fun (r : Results.run) -> r.correct) runs then 0 else 1

let compare_main a b =
  let load f =
    match Results.of_string (Golden.read f) with
    | Ok runs -> runs
    | Error msg ->
        Printf.eprintf "e2e: %s: %s\n" f msg;
        exit 2
  in
  let rows = Compare.rows (load a) (load b) in
  if rows = [] then begin
    prerr_endline "e2e: the two files share no (workload, metric) pair";
    exit 2
  end;
  Printf.printf "%-16s %-12s %12s %12s %9s %7s  %s\n" "workload" "metric" "A" "B" "change"
    "bound" "verdict";
  List.iter
    (fun (r : Compare.row) ->
      Printf.printf "%-16s %-12s %12.6g %12.6g %+8.1f%% %6.0f%%  %s\n" r.workload r.name
        r.a.median r.b.median (100. *. r.change)
        (100. *. Option.value ~default:0. r.a.metric.Metrics.bound)
        (Compare.verdict_to_string r.verdict))
    rows;
  if List.exists (fun (r : Compare.row) -> r.verdict = Compare.Worse) rows then 1 else 0

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let code =
    match args with
    | [ "compare"; a; b ] -> compare_main a b
    | "compare" :: _ -> usage ()
    | [ "golden" ] ->
        let logitdyn, _ = binaries () in
        Golden.generate ~logitdyn;
        Printf.printf "golden outputs written to %s\n" Golden.dir;
        0
    | _ -> run_main (parse_opts args)
  in
  exit code
