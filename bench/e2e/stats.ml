(* Order statistics over a run's samples.

   Quartiles follow the "exclusive" method of Python's
   statistics.quantiles(n=4), so the spread this benchmark reports for
   a set of runs is the spread a reader recomputes from the same values
   with the standard library. Tail percentiles use the nearest rank,
   which always names an observed sample. *)

type summary = { median : float; q1 : float; q3 : float; n : int }

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* [quartile a i] is the i-th quartile (i = 1, 2, 3) of the sorted,
   non-empty array [a]. *)
let quartile a i =
  let len = Array.length a in
  if len = 0 then invalid_arg "Stats.quartile: no samples";
  if len = 1 then a.(0)
  else begin
    let m = len + 1 in
    let j = Int.max 1 (Int.min (len - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
  end

let summarize xs =
  let a = sorted xs in
  { median = quartile a 2; q1 = quartile a 1; q3 = quartile a 3; n = Array.length a }

let median xs = (summarize xs).median

(* Nearest-rank percentile of a sorted array, the percentile given in
   tenths of a percent (990 = p99): the sample at 1-based rank
   ceil(per_mille * n / 1000). Integer arithmetic keeps the rank exact. *)
let percentile a ~per_mille =
  let len = Array.length a in
  if len = 0 then invalid_arg "Stats.percentile: no samples";
  if per_mille < 1 || per_mille > 1000 then
    invalid_arg "Stats.percentile: per_mille outside 1..1000";
  let rank = ((per_mille * len) + 999) / 1000 in
  a.(rank - 1)

(* How many samples lie strictly above the nearest-rank percentile. *)
let beyond ~n ~per_mille = n - (((per_mille * n) + 999) / 1000)

let ladder = [ 999; 990; 950; 900; 750; 500 ]

(* [supported ~n] is the highest percentile of [ladder] that keeps at
   least ten samples beyond it: a tail reported from fewer samples
   would be a single outlier, not a percentile. *)
let supported ~n = List.find_opt (fun per_mille -> beyond ~n ~per_mille >= 10) ladder

(* [tail a] is the tail latency a run reports as p99 from the sorted
   samples [a]: the 99th percentile when at least ten samples lie
   beyond it, else the highest lower percentile that keeps ten beyond,
   else the median. Returned with the percentile it actually is. *)
let tail a =
  let n = Array.length a in
  match List.find_opt (fun pm -> pm <= 990 && beyond ~n ~per_mille:pm >= 10) ladder with
  | Some per_mille -> (per_mille, percentile a ~per_mille)
  | None -> (500, quartile a 2)

let label per_mille =
  if per_mille mod 10 = 0 then Printf.sprintf "p%d" (per_mille / 10)
  else Printf.sprintf "p%d.%d" (per_mille / 10) (per_mille mod 10)
