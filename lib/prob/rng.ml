type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }
let copy t = { state = t.state }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let seed = bits64 t in
  { state = mix64 seed }

let split_n t n =
  if n < 0 then invalid_arg "Rng.split_n: negative count";
  if n = 0 then [||]
  else begin
    let out = Array.make n t in
    for i = 0 to n - 1 do
      out.(i) <- split t
    done;
    out
  end

(* 53 uniform mantissa bits, as in the reference implementation. *)
let float t = Int64.to_float (Int64.shift_right_logical (bits64 t) 11) *. 0x1p-53

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling on the high bits avoids modulo bias. *)
  let bound64 = Int64.of_int bound in
  let rec draw () =
    let bits = Int64.shift_right_logical (bits64 t) 1 in
    let value = Int64.rem bits bound64 in
    if Int64.sub bits value > Int64.sub Int64.max_int (Int64.sub bound64 1L) then
      draw ()
    else Int64.to_int value
  in
  draw ()

let bool t = Int64.logand (bits64 t) 1L = 1L
let bernoulli t p = float t < p

let exponential t ~rate =
  if rate <= 0. then invalid_arg "Rng.exponential: rate must be positive";
  let u = 1. -. float t in
  -.log u /. rate

let geometric t p =
  if p <= 0. || p > 1. then invalid_arg "Rng.geometric: p must be in (0, 1]";
  (* lint: allow float-equality — exact boundary where log (1 - p) is -inf *)
  if p = 1. then 0
  else
    let u = 1. -. float t in
    int_of_float (Float.floor (log u /. log (1. -. p)))

let categorical_pick weights ~u =
  let n = Array.length weights in
  let acc = ref 0. and chosen = ref (n - 1) and found = ref false in
  for i = 0 to n - 1 do
    if not !found then begin
      acc := !acc +. weights.(i);
      if u < !acc then begin
        chosen := i;
        found := true
      end
    end
  done;
  (* If rounding left u at or beyond the accumulated total, fall back
     to the last strictly positive weight (a zero-weight tail must
     never be selected). *)
  if not !found then begin
    let i = ref (n - 1) in
    (* lint: allow float-equality — a zero-weight tail must never be selected *)
    while weights.(!i) = 0. && !i > 0 do
      decr i
    done;
    chosen := !i
  end;
  !chosen

let categorical_total weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Rng.categorical: empty weights";
  let total = ref 0. in
  Array.iter
    (fun w ->
      if w < 0. || Float.is_nan w then invalid_arg "Rng.categorical: negative weight";
      total := !total +. w)
    weights;
  if !total <= 0. then invalid_arg "Rng.categorical: zero total weight";
  !total

let categorical t weights =
  let total = categorical_total weights in
  categorical_pick weights ~u:(float t *. total)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
