(* Verified state-space symmetries and orbit start sets.

   The built chains are not bitwise symmetric: a logit row's self-loop
   sums the players' stay probabilities in player order, and
   Chain.normalize_row sums a hash table, so P(σx, σy) and P(x, y) can
   differ in the last bits even under a true symmetry. A bitwise test
   would accept nothing; the comparison is relative instead.

   Measured on the catalog's ring, clique, curve and path games at
   n = 12 and β ∈ {0.25, 1, 4, 16}, over every CSR entry and π entry,
   as |a − b| / max(|a|, |b|): the true symmetries differ by at most
   7.5e-16, while the curve game's strategy swap, which is not a
   symmetry, is off by 0.53 to 1 (1.1 to 7e20 relative to the smaller
   value). 1e-13 sits two orders of magnitude above the first and
   twelve below the second. *)
let tolerance = 1e-13

(* A NaN matches nothing. *)
let matches a b =
  Float.abs (a -. b) <= tolerance *. Float.max (Float.abs a) (Float.abs b)

let is_bijection ~size sigma =
  Array.length sigma = size
  &&
  let seen = Array.make size false in
  Array.for_all
    (fun y ->
      y >= 0 && y < size && (not seen.(y))
      &&
      (seen.(y) <- true;
       true))
    sigma

let verify t pi sigma =
  let size = Chain.size t in
  if Array.length pi <> size then
    invalid_arg "Symmetry.verify: pi has the wrong length";
  is_bijection ~size sigma
  &&
  let ok = ref true and x = ref 0 in
  while !ok && !x < size do
    let sx = sigma.(!x) in
    ok := Chain.degree t !x = Chain.degree t sx && matches pi.(!x) pi.(sx);
    (* Stored probabilities are positive, so an entry missing from row
       σx reads as 0 and fails the match. *)
    if !ok then
      Chain.iter_row t !x (fun y p ->
          if !ok then ok := matches p (Chain.prob t sx sigma.(y)));
    incr x
  done;
  !ok

(* Union-find whose root is always the smallest member of its class,
   so the representatives come out as the roots. *)
let orbit_representatives ~size gens =
  let parent = Array.init size Fun.id in
  let find x =
    (* Path halving: nodes only ever point within their class. *)
    let x = ref x in
    while parent.(!x) <> !x do
      parent.(!x) <- parent.(parent.(!x));
      x := parent.(!x)
    done;
    !x
  in
  List.iter
    (fun g ->
      if not (is_bijection ~size g) then
        invalid_arg "Symmetry.orbit_representatives: generator is not a bijection";
      Array.iteri
        (fun x y ->
          let rx = find x and ry = find y in
          if rx < ry then parent.(ry) <- rx else if ry < rx then parent.(rx) <- ry)
        g)
    gens;
  List.filter (fun x -> find x = x) (List.init size Fun.id)

let starts t pi candidates =
  orbit_representatives ~size:(Chain.size t) (List.filter (verify t pi) candidates)
