(* Tests of the benchmark's own logic: statistics, input generation,
   output parsers, the results file, compare's verdicts, spans, and the
   agreement of BENCHMARK.json with the metric table. *)

open E2e_core
module P = Serve.Protocol
module J = Bench.Json

let test name f = Alcotest.test_case name `Quick f
let float_exact = Alcotest.float 0.

(* --- statistics --------------------------------------------------------- *)

(* Expected values from Python: statistics.quantiles(data, n=4). *)
let quartiles_match_python () =
  let check data (q1, q2, q3) =
    let s = Stats.summarize data in
    Alcotest.check float_exact "q1" q1 s.q1;
    Alcotest.check float_exact "median" q2 s.median;
    Alcotest.check float_exact "q3" q3 s.q3
  in
  check (List.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25);
  check [ 4.; 1.; 3.; 2. ] (1.25, 2.5, 3.75);
  check [ 3.; 1.; 2. ] (1., 2., 3.);
  check [ 7. ] (7., 7., 7.)

let nearest_rank () =
  let a = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  Alcotest.check float_exact "p99 of 1..1000" 990. (Stats.percentile a ~per_mille:990);
  Alcotest.check float_exact "p50 of 1..1000" 500. (Stats.percentile a ~per_mille:500);
  Alcotest.check float_exact "p100 is the maximum" 1000.
    (Stats.percentile a ~per_mille:1000);
  Alcotest.check float_exact "p1 of one sample" 3.
    (Stats.percentile [| 3. |] ~per_mille:10)

let ten_beyond () =
  let sup n = Stats.supported ~n in
  Alcotest.(check (option int)) "1000 samples support p99" (Some 990) (sup 1000);
  Alcotest.(check int) "ten beyond p99 of 1000" 10 (Stats.beyond ~n:1000 ~per_mille:990);
  Alcotest.(check (option int)) "999 samples fall back to p95" (Some 950) (sup 999);
  Alcotest.(check (option int)) "10000 samples support p99.9" (Some 999) (sup 10000);
  Alcotest.(check (option int)) "20 samples support only the median" (Some 500) (sup 20);
  Alcotest.(check (option int)) "19 samples support nothing" None (sup 19);
  let a = Array.init 19 (fun i -> float_of_int i) in
  Alcotest.(check (pair int float_exact))
    "tail falls back to the median" (500, 9.) (Stats.tail a);
  let a = Array.init 1000 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (pair int float_exact))
    "tail of 1000 is p99" (990, 990.) (Stats.tail a);
  Alcotest.(check string) "label" "p99.9" (Stats.label 999)

(* --- inputs from the seed ------------------------------------------------ *)

let describe_traffic reqs =
  List.map
    (fun (r : Schedule.request) ->
      Printf.sprintf "%Ld %d %s" r.due_ns r.conn (Schedule.describe r.query))
    reqs

let same_seed_same_inputs () =
  let t seed = describe_traffic (Schedule.traffic ~seed ~rate:200. ~decks:1) in
  Alcotest.(check (list string)) "same seed, same schedule and mix" (t 7) (t 7);
  Alcotest.(check bool) "another seed, another schedule" true (t 7 <> t 8);
  Alcotest.(check (list (float 0.))) "same seed, same beta order"
    (Schedule.shuffled ~seed:3 Schedule.spectral_betas)
    (Schedule.shuffled ~seed:3 Schedule.spectral_betas);
  let orders =
    List.sort_uniq compare
      (List.init 20 (fun seed -> Schedule.shuffled ~seed Schedule.spectral_betas))
  in
  Alcotest.(check bool) "seeds change the beta order" true (List.length orders > 1)

let every_seed_same_mix () =
  let reqs = Schedule.traffic ~seed:5 ~rate:200. ~decks:2 in
  Alcotest.(check int) "two decks" (2 * Schedule.deck_size) (List.length reqs);
  let count kind =
    List.length
      (List.filter (fun (r : Schedule.request) -> Schedule.kind r.query = kind) reqs)
  in
  let n = List.length reqs in
  Alcotest.(check int) "60% stationary" (n * 60 / 100) (count "stationary");
  Alcotest.(check int) "15% simulate" (n * 15 / 100) (count "simulate");
  Alcotest.(check int) "25% mixing" (n * 25 / 100) (count "mixing");
  let due = List.map (fun (r : Schedule.request) -> r.due_ns) reqs in
  Alcotest.(check bool) "arrivals ascend" true (List.sort compare due = due);
  List.iter
    (fun (r : Schedule.request) ->
      Alcotest.(check bool) "every query has a golden entry" true
        (List.mem r.query Schedule.all_queries))
    reqs

(* --- parsers ------------------------------------------------------------- *)

let parse_t_mix () =
  let out =
    "game=ring n=7 |S|=128 beta=0.5 reversible=true\nt_mix(0.25) = 19\ndPhi = 6\n"
  in
  Alcotest.(check (option (pair float_exact int)))
    "t_mix line" (Some (0.25, 19)) (Parse.t_mix out);
  Alcotest.(check (option (pair float_exact int)))
    "over budget" None
    (Parse.t_mix "t_mix(0.1) > max_steps\n");
  Alcotest.(check (option (pair float_exact int)))
    "absent" None (Parse.t_mix "nothing here")

let parse_store () =
  let line = "store: 2 hit(s), 0 miss(es), 1 write(s) in .e2e/tmp-1/store-3" in
  (match Parse.store_line line with
  | Some { Parse.hits = 2; misses = 0; writes = 1 } -> ()
  | _ -> Alcotest.fail "store line not parsed");
  Alcotest.(check bool) "other lines are not store lines" true
    (Parse.store_line "store ls: 3 objects" = None);
  let body, counts = Parse.split_store ("a\nb\n" ^ line ^ "\n") in
  Alcotest.(check string) "store line removed" "a\nb\n" body;
  Alcotest.(check bool) "counts returned" true
    (counts = Some { Parse.hits = 2; misses = 0; writes = 1 });
  let body, counts = Parse.split_store "a\nb\n" in
  Alcotest.(check string) "no store line: unchanged" "a\nb\n" body;
  Alcotest.(check bool) "no counts" true (counts = None)

(* --- results file ----------------------------------------------------------- *)

let metric name = Option.get (Metrics.find name)

let value ?(q1 = 0.) ?(q3 = 0.) name median =
  { Results.metric = metric name; median; q1; q3; n = 7 }

let results_round_trip () =
  let run =
    {
      Results.workload = "daemon";
      seed = 42;
      trace = false;
      correct = true;
      attempted = 3000;
      failed = 0;
      values =
        [
          value "wall_s" 0.1 ~q1:(1. /. 3.) ~q3:0.30000000000000004;
          value "markov.panel_steps" 25.;
          value "serve.encode_us" 2.1805000000000003;
        ];
    }
  in
  let other = { run with workload = "x"; trace = true } in
  match Results.of_string (Results.to_string [ run; other ]) with
  | Ok [ a; b ] ->
      Alcotest.(check bool) "first run round-trips exactly" true (a = run);
      Alcotest.(check bool) "second run round-trips exactly" true (b = other)
  | Ok _ -> Alcotest.fail "wrong number of runs"
  | Error msg -> Alcotest.fail msg

let result_line_shape () =
  let run =
    {
      Results.workload = "experiments";
      seed = 1;
      trace = false;
      correct = true;
      attempted = 12;
      failed = 0;
      values = [ value "setup_s" 0.0015; value "p99_ms" 4.25 ];
    }
  in
  match J.parse (Results.result_line run) with
  | Error msg -> Alcotest.fail msg
  | Ok j ->
      Alcotest.(check (list string))
        "keys" [ "correct"; "attempted"; "failed"; "metrics" ]
        (match j with J.Obj kvs -> List.map fst kvs | _ -> []);
      (match J.member "metrics" j with
      | Some (J.Obj [ ("setup_s", m); ("p99_ms", _) ]) ->
          Alcotest.(check (result float_exact string))
            "value" (Ok 0.0015) (J.num_field "value" m);
          Alcotest.(check (result string string)) "unit" (Ok "s") (J.str_field "unit" m)
      | _ -> Alcotest.fail "metrics object")

(* --- compare ----------------------------------------------------------------- *)

let verdicts () =
  let v ~bound a b = Compare.verdict_to_string (Compare.verdict ~bound ~a ~b) in
  let narrow name m = value name m ~q1:(m -. 1.) ~q3:(m +. 1.) in
  Alcotest.(check string) "exactly at the bound agrees" "agree"
    (v ~bound:0.1 (narrow "wall_s" 100.) (narrow "wall_s" 110.));
  Alcotest.(check string) "exactly at the bound, faster, agrees" "agree"
    (v ~bound:0.1 (narrow "wall_s" 100.) (narrow "wall_s" 90.));
  Alcotest.(check string) "past the bound, ranges apart: worse" "worse"
    (v ~bound:0.1 (narrow "wall_s" 100.) (narrow "wall_s" 110.5));
  Alcotest.(check string) "past the bound, ranges apart: better" "better"
    (v ~bound:0.1 (narrow "wall_s" 100.) (narrow "wall_s" 89.));
  Alcotest.(check string) "past the bound, ranges overlap: unresolved" "unresolved"
    (v ~bound:0.1
       (value "wall_s" 100. ~q1:90. ~q3:115.)
       (value "wall_s" 112. ~q1:101. ~q3:125.));
  Alcotest.(check string) "ranges touching count as overlapping" "unresolved"
    (v ~bound:0.1
       (value "wall_s" 100. ~q1:95. ~q3:105.)
       (value "wall_s" 111. ~q1:105. ~q3:115.));
  Alcotest.(check string) "higher is better: a rise is better" "better"
    (v ~bound:0.1 (narrow "markov.spmm_gbps" 100.)
       (narrow "markov.spmm_gbps" 120.))

let compare_rows () =
  let run workload values =
    {
      Results.workload;
      seed = 1;
      trace = false;
      correct = true;
      attempted = 1;
      failed = 0;
      values;
    }
  in
  let a =
    [ run "daemon" [ value "p50_ms" 1. ~q1:0.9 ~q3:1.1; value "serve.batches" 10. ] ]
  in
  let b =
    [
      run "daemon" [ value "p50_ms" 2. ~q1:1.9 ~q3:2.1; value "serve.batches" 99. ];
      run "experiments" [ value "p50_ms" 1. ];
    ]
  in
  match Compare.rows a b with
  | [ r ] ->
      Alcotest.(check string) "pair" "daemon p50_ms" (r.workload ^ " " ^ r.name);
      Alcotest.(check string) "verdict" "worse" (Compare.verdict_to_string r.verdict);
      Alcotest.check float_exact "change" 1. r.change
  | rows ->
      Alcotest.failf "expected one row (bounded metrics shared by both), got %d"
        (List.length rows)

(* --- spans -------------------------------------------------------------------- *)

let self_time () =
  let t = Spans.create () in
  Spans.with_ t "outer" (fun () ->
      Spans.with_ t "inner" ignore;
      Spans.with_ t ~req_id:3 "inner" ignore);
  let rows = Spans.self_ms t in
  let find name = List.find (fun (n, _, _, _) -> n = name) rows in
  let _, count, inner_total, inner_self = find "inner" in
  let _, _, outer_total, outer_self = find "outer" in
  Alcotest.(check int) "two inner spans" 2 count;
  Alcotest.check float_exact "leaf self time is its total" inner_total inner_self;
  Alcotest.(check (float 1e-9)) "outer self time excludes its children"
    (outer_total -. inner_total) outer_self;
  (match Spans.spans t with
  | [ outer; first; second ] ->
      Alcotest.(check (option int)) "outer has no parent" None outer.parent;
      Alcotest.(check (option int))
        "children point at outer" (Some outer.id) first.parent;
      Alcotest.(check (option int)) "req_id kept" (Some 3) second.req_id
  | _ -> Alcotest.fail "three spans expected");
  Alcotest.check_raises "leaving out of order"
    (Invalid_argument "Spans.leave: a is not the innermost span") (fun () ->
      let a = Spans.enter t "a" in
      let _b = Spans.enter t "b" in
      Spans.leave t a)

let chrome_trace () =
  let t = Spans.create () in
  Spans.with_ t "serve.batch" (fun () ->
      Spans.with_ t ~req_id:1 "serve.eval.mixing" ignore);
  match J.parse (J.to_string (Spans.chrome t)) with
  | Error msg -> Alcotest.fail msg
  | Ok j -> (
      match J.member "traceEvents" j with
      | Some (J.List [ outer; inner ]) ->
          Alcotest.(check (result string string))
            "complete event" (Ok "X") (J.str_field "ph" outer);
          Alcotest.(check (result string string))
            "category" (Ok "serve") (J.str_field "cat" inner);
          Alcotest.(check bool) "req_id in args" true
            (match J.member "args" inner with
            | Some args -> J.int_field "req_id" args = Ok 1
            | None -> false)
      | _ -> Alcotest.fail "two trace events expected")

(* --- BENCHMARK.json ------------------------------------------------------------ *)

let benchmark_json_agrees () =
  (* The test runs in _build/default/bench/e2e/test. *)
  let path = String.concat Filename.dir_sep [ ".."; ".."; ".."; "BENCHMARK.json" ] in
  let j =
    match J.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok j -> j
    | Error msg -> Alcotest.fail msg
  in
  let ok = function Ok v -> v | Error msg -> Alcotest.fail msg in
  let list key = ok (J.list_field key j) in
  let str key o = ok (J.str_field key o) in
  let show (m : Metrics.t) =
    Printf.sprintf "%s %s %s %s" m.name m.unit_ (Metrics.better_to_string m.better)
      (match m.bound with Some b -> Printf.sprintf "%g" b | None -> "-")
  in
  let of_json o =
    Printf.sprintf "%s %s %s %s" (str "name" o) (str "unit" o) (str "better" o)
      (match J.num_field "bound" o with Ok b -> Printf.sprintf "%g" b | Error _ -> "-")
  in
  Alcotest.(check (list string)) "end-to-end metrics"
    (List.map show Metrics.end_to_end)
    (List.map of_json (list "end_to_end"));
  Alcotest.(check (list string)) "per-layer metrics"
    (List.map show Metrics.per_layer)
    (List.map of_json (list "per_layer"));
  Alcotest.(check (list (pair string string))) "workloads" Metrics.workloads
    (List.map (fun o -> (str "name" o, str "why" o)) (list "workloads"))

let () =
  Alcotest.run "e2e"
    [
      ( "e2e.stats",
        [
          test "quartiles match python" quartiles_match_python;
          test "nearest-rank percentiles" nearest_rank;
          test "ten samples beyond a reported percentile" ten_beyond;
        ] );
      ( "e2e.inputs",
        [
          test "same seed, same inputs" same_seed_same_inputs;
          test "every seed offers the same mix" every_seed_same_mix;
        ] );
      ("e2e.parse", [ test "t_mix line" parse_t_mix; test "store line" parse_store ]);
      ( "e2e.results",
        [
          test "round trip" results_round_trip;
          test "result line shape" result_line_shape;
        ] );
      ("e2e.compare", [ test "boundary verdicts" verdicts; test "rows" compare_rows ]);
      ("e2e.spans", [ test "self time" self_time; test "chrome trace" chrome_trace ]);
      ( "e2e.benchmark",
        [ test "BENCHMARK.json agrees with the table" benchmark_json_agrees ] );
    ]
