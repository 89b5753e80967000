(* Verdicts of [compare A B] for one (workload, metric) pair.

   - Agree: the medians differ by at most the metric's bound, as a
     share of A's median.
   - Unresolved: they differ by more, but the two interquartile ranges
     overlap, so the runs cannot tell the difference from noise.
   - Better / Worse: they differ by more and the ranges are apart. *)

type verdict = Agree | Unresolved | Better | Worse

let verdict_to_string = function
  | Agree -> "agree"
  | Unresolved -> "unresolved"
  | Better -> "better"
  | Worse -> "worse"

let relative_change ~(a : Results.value) ~(b : Results.value) =
  if a.median > 0. then (b.median -. a.median) /. a.median
  else if b.median > 0. then Float.infinity
  else 0.

let verdict ~bound ~(a : Results.value) ~(b : Results.value) =
  let change = relative_change ~a ~b in
  if Float.abs change <= bound then Agree
  else if a.q1 <= b.q3 && b.q1 <= a.q3 then Unresolved
  else
    match (a.metric.Metrics.better, change > 0.) with
    | Metrics.Lower, false | Metrics.Higher, true -> Better
    | Metrics.Lower, true | Metrics.Higher, false -> Worse

type row = {
  workload : string;
  name : string;
  a : Results.value;
  b : Results.value;
  change : float;
  verdict : verdict;
}

(* Every metric with a bound that both files report for a workload. *)
let rows (runs_a : Results.run list) (runs_b : Results.run list) =
  List.concat_map
    (fun (ra : Results.run) ->
      match
        List.find_opt (fun (rb : Results.run) -> rb.workload = ra.workload) runs_b
      with
      | None -> []
      | Some rb ->
          List.filter_map
            (fun (a : Results.value) ->
              match a.metric.Metrics.bound with
              | None -> None
              | Some bound ->
                  List.find_opt
                    (fun (b : Results.value) -> b.metric.Metrics.name = a.metric.name)
                    rb.values
                  |> Option.map (fun b ->
                         {
                           workload = ra.workload;
                           name = a.metric.name;
                           a;
                           b;
                           change = relative_change ~a ~b;
                           verdict = verdict ~bound ~a ~b;
                         }))
            ra.values)
    runs_a
