type t = {
  m : int;
  beta : float;
  phi : int -> int -> float;
  phi_min : float;
  values : float array;  (** eigenvalues of the scaled matrix, desc *)
  vectors : Linalg.Mat.t;
  scaled : Linalg.Mat.t;  (** T̃(a,b) = e^{-β(φ(a,b) - φ_min)} *)
}

let create ~strategies ~beta phi =
  if strategies < 1 then invalid_arg "Transfer_matrix.create: need strategies";
  if beta < 0. then invalid_arg "Transfer_matrix.create: beta >= 0";
  for a = 0 to strategies - 1 do
    for b = a + 1 to strategies - 1 do
      if Float.abs (phi a b -. phi b a) > 1e-12 then
        invalid_arg "Transfer_matrix.create: edge potential must be symmetric"
    done
  done;
  let phi_min = ref (phi 0 0) in
  for a = 0 to strategies - 1 do
    for b = 0 to strategies - 1 do
      if phi a b < !phi_min then phi_min := phi a b
    done
  done;
  let phi_min = !phi_min in
  let scaled =
    Linalg.Mat.init strategies strategies (fun a b ->
        exp (-.beta *. (phi a b -. phi_min)))
  in
  let values, vectors = Linalg.Eigen.symmetric scaled in
  { m = strategies; beta; phi; phi_min; values; vectors; scaled }

let check_ring n = if n < 3 then invalid_arg "Transfer_matrix: ring needs n >= 3"

(* S_p = Σ_k (λ_k/λ₁)^p; all entries of T̃ are positive, so λ₁ is the
   simple Perron root and the ratios have modulus < 1. *)
let ratio_power_sum t p =
  let top = t.values.(0) in
  let acc = ref 0. in
  Array.iter
    (fun lambda ->
      let r = lambda /. top in
      let magnitude = exp (float_of_int p *. log (Float.abs r)) in
      let signed =
        if r < 0. && p land 1 = 1 then -.magnitude
        else if r < 0. then magnitude
        else magnitude
      in
      if Float.abs r > 0. then acc := !acc +. signed)
    t.values;
  !acc

let log_partition t ~n =
  check_ring n;
  (* Z = Σ λ_kⁿ on the scaled matrix, un-scaled by e^{-βφ_min} per edge. *)
  (-.t.beta *. t.phi_min *. float_of_int n)
  +. (float_of_int n *. log t.values.(0))
  +. log (ratio_power_sum t n)

let pair_marginal t ~n =
  check_ring n;
  let top = t.values.(0) in
  (* G(b, a) = Σ_k (λ_k/λ₁)^{n-1} U(b,k) U(a,k). *)
  let g =
    Linalg.Mat.init t.m t.m (fun b a ->
        let acc = ref 0. in
        Array.iteri
          (fun k lambda ->
            let r = lambda /. top in
            let magnitude = exp (float_of_int (n - 1) *. log (Float.abs r)) in
            let signed =
              if r < 0. && (n - 1) land 1 = 1 then -.magnitude else magnitude
            in
            acc :=
              !acc
              +. (signed *. Linalg.Mat.get t.vectors b k *. Linalg.Mat.get t.vectors a k))
          t.values;
        !acc)
  in
  let s_n = ratio_power_sum t n in
  let marginal =
    Linalg.Mat.init t.m t.m (fun a b ->
        Linalg.Mat.get t.scaled a b *. Linalg.Mat.get g b a /. (top *. s_n))
  in
  (* Round-off guard: clamp and renormalise to a distribution. *)
  let total = ref 0. in
  for a = 0 to t.m - 1 do
    for b = 0 to t.m - 1 do
      let v = Float.max 0. (Linalg.Mat.get marginal a b) in
      Linalg.Mat.set marginal a b v;
      total := !total +. v
    done
  done;
  Linalg.Mat.scale (1. /. !total) marginal

let expected_edge_potential t ~n =
  let marginal = pair_marginal t ~n in
  let acc = ref 0. in
  for a = 0 to t.m - 1 do
    for b = 0 to t.m - 1 do
      acc := !acc +. (Linalg.Mat.get marginal a b *. t.phi a b)
    done
  done;
  !acc

let site_marginal t ~n =
  let marginal = pair_marginal t ~n in
  Array.init t.m (fun a ->
      let acc = ref 0. in
      for b = 0 to t.m - 1 do
        acc := !acc +. Linalg.Mat.get marginal a b
      done;
      !acc)

let correlation_length t =
  if t.m < 2 then infinity
  else begin
    let top = t.values.(0) in
    let second =
      Array.fold_left
        (fun acc lambda ->
          if Float.abs (lambda -. top) > 1e-15 then Float.max acc (Float.abs lambda)
          else acc)
        0.
        t.values
    in
    if second <= 0. then infinity
    else begin
      let ratio = second /. top in
      if ratio >= 1. then infinity else -1. /. log ratio
    end
  end
