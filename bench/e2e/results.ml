(* The results file written by [--out]: one record per (workload, run),
   each metric with the run's median, quartiles and sample count, so
   [compare] can weigh a difference against the spread behind it. *)

module J = Bench.Json

type value = { metric : Metrics.t; median : float; q1 : float; q3 : float; n : int }

type run = {
  workload : string;
  seed : int;
  trace : bool;
  correct : bool;
  attempted : int;
  failed : int;
  values : value list;
}

let value_to_json v =
  J.Obj
    ([
       ("name", J.Str v.metric.Metrics.name);
       ("unit", J.Str v.metric.unit_);
       ("better", J.Str (Metrics.better_to_string v.metric.better));
     ]
    @ (match v.metric.bound with Some b -> [ ("bound", J.Num b) ] | None -> [])
    @ [
        ("median", J.Num v.median);
        ("q1", J.Num v.q1);
        ("q3", J.Num v.q3);
        ("n", J.Num (float_of_int v.n));
      ])

let run_to_json r =
  J.Obj
    [
      ("workload", J.Str r.workload);
      ("seed", J.Num (float_of_int r.seed));
      ("trace", J.Bool r.trace);
      ("correct", J.Bool r.correct);
      ("attempted", J.Num (float_of_int r.attempted));
      ("failed", J.Num (float_of_int r.failed));
      ("metrics", J.List (List.map value_to_json r.values));
    ]

let to_string runs = J.pretty (J.Obj [ ("runs", J.List (List.map run_to_json runs)) ])

let ( let* ) = Result.bind

let value_of_json j =
  let* name = J.str_field "name" j in
  let* unit_ = J.str_field "unit" j in
  let* better_s = J.str_field "better" j in
  let* better =
    Option.to_result ~none:("bad direction " ^ better_s)
      (Metrics.better_of_string better_s)
  in
  let bound = Result.to_option (J.num_field "bound" j) in
  let* median = J.num_field "median" j in
  let* q1 = J.num_field "q1" j in
  let* q3 = J.num_field "q3" j in
  let* n = J.int_field "n" j in
  Ok { metric = { Metrics.name; unit_; better; bound }; median; q1; q3; n }

let rec all_ok = function
  | [] -> Ok []
  | Ok x :: rest ->
      let* xs = all_ok rest in
      Ok (x :: xs)
  | (Error _ as e) :: _ -> e

let run_of_json j =
  let* workload = J.str_field "workload" j in
  let* seed = J.int_field "seed" j in
  let* trace = J.bool_field "trace" j in
  let* correct = J.bool_field "correct" j in
  let* attempted = J.int_field "attempted" j in
  let* failed = J.int_field "failed" j in
  let* metrics = J.list_field "metrics" j in
  let* values = all_ok (List.map value_of_json metrics) in
  Ok { workload; seed; trace; correct; attempted; failed; values }

let of_string s =
  let* j = J.parse s in
  let* runs = J.list_field "runs" j in
  all_ok (List.map run_of_json runs)

(* The one-line result the driver reads: the last line of stdout. *)
let result_line r =
  J.to_string
    (J.Obj
       [
         ("correct", J.Bool r.correct);
         ("attempted", J.Num (float_of_int r.attempted));
         ("failed", J.Num (float_of_int r.failed));
         ( "metrics",
           J.Obj
             (List.map
                (fun v ->
                  ( v.metric.Metrics.name,
                    J.Obj [ ("value", J.Num v.median); ("unit", J.Str v.metric.unit_) ] ))
                r.values) );
       ])
