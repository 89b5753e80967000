let check_starts n starts =
  if starts = [] then invalid_arg "Mixing: empty start set";
  List.iter
    (fun s -> if s < 0 || s >= n then invalid_arg "Mixing: start out of range")
    starts

let panel_create len : Chain.panel =
  Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout len

let panel_of_starts n starts =
  let p = panel_create (List.length starts * n) in
  Bigarray.Array1.fill p 0.;
  List.iteri (fun r s -> Bigarray.Array1.set p ((r * n) + s) 1.) starts;
  p

(* TV of panel row [r] against pi, summed left to right; bounds are
   guaranteed by the callers ([pi] length-checked against the chain,
   panels allocated with [Array.length tvs] rows). *)
let tv_row pi (panel : Chain.panel) r =
  let n = Array.length pi in
  let base = r * n in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc :=
      !acc
      +. Float.abs
           (Bigarray.Array1.unsafe_get panel (base + i) -. Array.unsafe_get pi i)
  done;
  0.5 *. !acc

let refresh_tvs pool pi panel tvs =
  (* Cutover cost of one TV row: one |S|-length abs-diff sum. *)
  Exec.Pool.iter_opt ~cost:(Array.length pi) pool ~n:(Array.length tvs) (fun r ->
      (* lint: allow domain-capture — tvs.(r) has exactly one writer, iteration r *)
      tvs.(r) <- tv_row pi panel r)

let worst tvs = Array.fold_left Float.max 0. tvs

(* The one sweep loop every exact-TV consumer drives: the serial CLI
   paths, the daemon's coalesced scheduler, the out-of-core segmented
   path and the β-grid sweeps all settle their answers through it —
   which is what makes "coalesced (segmented, fused) answers are
   bit-identical to serial in-RAM answers" true by construction rather
   than by test alone.

   One panel per plane holds the start distributions (start r occupies
   [r·n, (r+1)·n)), double-buffered across steps. After every TV
   refresh (step 0 included) [decide] sees each live plane's worst TV
   and may settle it; settled planes stop evolving. [advance_for live]
   returns the step function for the live planes, listed in [live]
   order; it is re-derived only when a plane settles, so the
   steady-state step allocates nothing. Per plane the (step, worst)
   sequence is the same whatever the other planes do. *)
let sweep ~pool ~n ~pis ~starts ~advance_for ~decide =
  check_starts n starts;
  Array.iter
    (fun pi -> if Array.length pi <> n then invalid_arg "Mixing: dimension mismatch")
    pis;
  let np = Array.length pis in
  let k = List.length starts in
  let src = Array.init np (fun _ -> panel_of_starts n starts) in
  let dst = Array.init np (fun _ -> panel_create (k * n)) in
  let tvs = Array.init np (fun _ -> Array.make k 0.) in
  for p = 0 to np - 1 do
    refresh_tvs pool pis.(p) src.(p) tvs.(p)
  done;
  let settled = Array.make np false in
  let live = ref (Array.init np Fun.id) in
  let src_a = ref (Array.copy src) and dst_a = ref (Array.copy dst) in
  let advance = ref (advance_for !live) in
  let rec go step =
    let changed = ref false in
    for i = 0 to Array.length !live - 1 do
      let p = !live.(i) in
      if decide ~plane:p ~step ~worst:(worst tvs.(p)) then begin
        settled.(p) <- true;
        changed := true
      end
    done;
    if !changed then begin
      live :=
        Array.of_list (List.filter (fun p -> not settled.(p)) (Array.to_list !live));
      src_a := Array.map (fun p -> src.(p)) !live;
      dst_a := Array.map (fun p -> dst.(p)) !live;
      if Array.length !live > 0 then advance := advance_for !live
    end;
    if Array.length !live > 0 then begin
      !advance ~src:!src_a ~dst:!dst_a;
      for i = 0 to Array.length !live - 1 do
        let p = !live.(i) in
        let previous = src.(p) in
        src.(p) <- dst.(p);
        dst.(p) <- previous;
        !src_a.(i) <- src.(p);
        !dst_a.(i) <- dst.(p);
        refresh_tvs pool pis.(p) src.(p) tvs.(p)
      done;
      go (step + 1)
    end
  in
  go 0

let panel_sweep_kernel ?pool kernel pi ~starts ~decide =
  let k = List.length starts in
  let result = ref None in
  sweep ~pool ~n:(Kernel.size kernel) ~pis:[| pi |] ~starts
    ~advance_for:(fun _ ~src ~dst ->
      kernel.Kernel.evolve_many_into ~pool ~k ~src:src.(0) ~dst:dst.(0))
    ~decide:(fun ~plane:_ ~step ~worst ->
      result := decide ~step ~worst;
      Option.is_some !result);
  (* The sweep only ends once its single plane has settled. *)
  Option.get !result

let panel_sweep ?pool t pi ~starts ~decide =
  panel_sweep_kernel ?pool (Kernel.of_chain t) pi ~starts ~decide

let tv_curve_kernel ?pool kernel pi ~starts ~steps =
  if steps < 0 then invalid_arg "Mixing.tv_curve: negative steps";
  let curve = Array.make (steps + 1) 0. in
  panel_sweep_kernel ?pool kernel pi ~starts ~decide:(fun ~step ~worst ->
      curve.(step) <- worst;
      if step >= steps then Some curve else None)

let tv_curve ?pool t pi ~starts ~steps =
  tv_curve_kernel ?pool (Kernel.of_chain t) pi ~starts ~steps

let check_max_steps name max_steps =
  if max_steps < 0 then invalid_arg (name ^ ": negative max_steps")

let mixing_time_kernel ?pool ?(eps = 0.25) ?(max_steps = 1_000_000) kernel pi
    ~starts =
  check_max_steps "Mixing.mixing_time" max_steps;
  panel_sweep_kernel ?pool kernel pi ~starts ~decide:(fun ~step ~worst ->
      if worst <= eps then Some (Some step)
      else if step >= max_steps then Some None
      else None)

let mixing_time ?pool ?eps ?max_steps t pi ~starts =
  mixing_time_kernel ?pool ?eps ?max_steps (Kernel.of_chain t) pi ~starts

let mixing_time_all ?pool ?eps ?max_steps t pi =
  mixing_time ?pool ?eps ?max_steps t pi ~starts:(List.init (Chain.size t) Fun.id)

(* The β-grid instance of [sweep]: the live planes advance in lockstep
   through the fused multi-plane SpMM when the family shares its
   structure (a subset of a shared family still shares it, so the
   traversal stays fused to the end). *)
let family_panel_sweep ?pool family ~pis ~starts ~decide =
  if Array.length pis <> Family.num_planes family then
    invalid_arg "Mixing.family_panel_sweep: need one pi per plane";
  let k = List.length starts in
  sweep ~pool ~n:(Family.size family) ~pis ~starts ~decide ~advance_for:(fun live ->
      let live_family = Family.sub family live in
      fun ~src ~dst -> Family.evolve_many_into ?pool live_family ~k ~src ~dst)

let family_mixing_times ?pool ?(eps = 0.25) ?(max_steps = 1_000_000) family ~pis
    ~starts =
  check_max_steps "Mixing.family_mixing_times" max_steps;
  let out = Array.make (Family.num_planes family) None in
  family_panel_sweep ?pool family ~pis ~starts ~decide:(fun ~plane ~step ~worst ->
      if worst <= eps then begin
        (* lint: allow domain-capture — decide runs on the driving thread only *)
        out.(plane) <- Some step;
        true
      end
      else step >= max_steps);
  out

let tv_at t pi ~start ~steps =
  (tv_curve t pi ~starts:[ start ] ~steps).(steps)

let empirical_tv ?pool rng t pi ~start ~steps ~replicas =
  check_starts (Chain.size t) [ start ];
  if steps < 0 then invalid_arg "Mixing.empirical_tv: negative steps";
  if replicas < 1 then invalid_arg "Mixing.empirical_tv: need replicas";
  (* Replica r always consumes stream r of the split, so the estimate
     is a function of the seed alone — the same bits drive the chains
     whether they run serially or across any number of domains. *)
  let streams = Prob.Rng.split_n rng replicas in
  let final = Array.make replicas start in
  (* Cutover cost of one replica: [steps] sampler draws, each an RNG
     advance plus an O(log degree) binary search — call it 8 units. *)
  Exec.Pool.iter_opt ~cost:(8 * steps) pool ~n:replicas (fun r ->
      let rng = streams.(r) in
      let state = ref start in
      for _ = 1 to steps do
        state := Chain.sample_step rng t !state
      done;
      (* lint: allow domain-capture — final.(r) has exactly one writer, replica r *)
      final.(r) <- !state);
  let emp = Prob.Empirical.create (Chain.size t) in
  Array.iter (Prob.Empirical.add emp) final;
  Prob.Empirical.tv_against emp (Prob.Dist.of_weights pi)

let upper_mixing_time_spectral ~gap ~pi_min ~eps =
  if gap <= 0. || pi_min <= 0. || eps <= 0. then
    invalid_arg "Mixing.upper_mixing_time_spectral";
  (1. /. gap) *. log (1. /. (eps *. pi_min))

let lower_mixing_time_spectral ~gap ~eps =
  if gap <= 0. || eps <= 0. then invalid_arg "Mixing.lower_mixing_time_spectral";
  ((1. /. gap) -. 1.) *. log (1. /. (2. *. eps))

let decompose t pi = Linalg.Eigen.symmetric (Spectral.symmetrize t pi)

(* λ^t with sign handling and underflow-to-zero for huge t. *)
let eigen_pow lambda t =
  if t = 0 then 1.
  (* lint: allow float-equality — exact zero short-circuits before log *)
  else if lambda = 0. then 0.
  else begin
    let magnitude = exp (float_of_int t *. log (Float.abs lambda)) in
    if lambda < 0. && t land 1 = 1 then -.magnitude else magnitude
  end

(* [spectral_probe ~eps ~decomposition pi ~starts] is the probe
   "d(t) <= eps" as a function of t. From A = U Λ Uᵀ,
   Pᵗ(x,y) = Σ_k λ_kᵗ U(x,k) U(y,k) √(π(y)/π(x)). Per probe, λ_kᵗ is
   computed once and the terms it underflows to zero are dropped; per
   start, w_k = λ_kᵗ U(x,k) is formed once, and each Pᵗ(x,y) sums
   w_k U(y,k) in ascending k. The float operations per start are those
   of the one-start formula, so the TV of a start does not depend on
   which other starts are probed. Starts are tried one at a time,
   first the one that failed the previous probe, and the probe fails
   at the first start whose TV is not <= eps (a NaN fails it too). *)
let spectral_probe ~eps ~decomposition:(values, u) pi ~starts =
  let n = Array.length pi in
  let kk = Array.length values in
  if Linalg.Mat.dims u <> (n, kk) then
    invalid_arg "Mixing.mixing_time_from_decomposition: dimension mismatch";
  check_starts n starts;
  let u = u.Linalg.Mat.data in
  let sqrt_pi = Array.map sqrt pi in
  let starts = Array.of_list starts in
  let count = Array.length starts in
  let last_failed = ref 0 in
  let live = Array.make kk 0 and w = Array.make kk 0. in
  fun steps ->
    let powers = Array.map (fun lambda -> eigen_pow lambda steps) values in
    let nnz = ref 0 in
    for k = 0 to kk - 1 do
      (* lint: allow float-equality — exact-zero skip of underflowed spectral terms *)
      if powers.(k) <> 0. then begin
        live.(!nnz) <- k;
        incr nnz
      end
    done;
    let nnz = !nnz in
    let tv start =
      let row = start * kk in
      for j = 0 to nnz - 1 do
        let k = live.(j) in
        w.(j) <- powers.(k) *. u.(row + k)
      done;
      let acc = ref 0. in
      for y = 0 to n - 1 do
        let row = y * kk in
        let p = ref 0. in
        for j = 0 to nnz - 1 do
          p := !p +. (w.(j) *. u.(row + live.(j)))
        done;
        let pt = !p *. sqrt_pi.(y) /. sqrt_pi.(start) in
        acc := !acc +. Float.abs (pt -. pi.(y))
      done;
      0.5 *. !acc
    in
    let fails i =
      let failed = not (tv starts.(i) <= eps) in
      if failed then last_failed := i;
      failed
    in
    let first = !last_failed in
    let rec others i = i < count && ((i <> first && fails i) || others (i + 1)) in
    not (fails first || others 0)

let mixing_time_from_decomposition ?(eps = 0.25) ?(max_steps = max_int / 4)
    ~decomposition pi ~starts =
  check_max_steps "Mixing.mixing_time_from_decomposition" max_steps;
  let mixed = spectral_probe ~eps ~decomposition pi ~starts in
  if mixed 0 then Some 0
  else if max_steps = 0 then None
  else begin
    (* Double to bracket within the budget, then binary search on the
       monotone d(·); every probed time is at most [max_steps]. *)
    let rec bracket hi =
      if mixed hi then Some hi
      else if hi >= max_steps then None
      else bracket (Int.min max_steps (2 * hi))
    in
    match bracket 1 with
    | None -> None
    | Some hi ->
        let rec search lo hi =
          (* invariant: d(lo) > eps >= d(hi) *)
          if hi - lo <= 1 then hi
          else
            let mid = lo + ((hi - lo) / 2) in
            if mixed mid then search lo mid else search mid hi
        in
        Some (search (hi / 2) hi)
  end

let mixing_time_spectral ?eps ?max_steps t pi ~starts =
  check_starts (Chain.size t) starts;
  mixing_time_from_decomposition ?eps ?max_steps ~decomposition:(decompose t pi)
    pi ~starts

let renormalize_rows m =
  let n, _ = Linalg.Mat.dims m in
  for i = 0 to n - 1 do
    let s = ref 0. in
    for j = 0 to n - 1 do
      s := !s +. Linalg.Mat.get m i j
    done;
    if !s > 0. then
      for j = 0 to n - 1 do
        Linalg.Mat.set m i j (Linalg.Mat.get m i j /. !s)
      done
  done;
  m

let mixing_time_squaring ?(eps = 0.25) ?(max_steps = max_int / 4) t pi ~starts =
  check_max_steps "Mixing.mixing_time_squaring" max_steps;
  check_starts (Chain.size t) starts;
  let n = Chain.size t in
  if n > 768 then invalid_arg "Mixing.mixing_time_squaring: state space too large";
  let d_matrix m =
    List.fold_left
      (fun acc start ->
        let tv = ref 0. in
        for y = 0 to n - 1 do
          tv := !tv +. Float.abs (Linalg.Mat.get m start y -. pi.(y))
        done;
        Float.max acc (0.5 *. !tv))
      0. starts
  in
  let p = Chain.to_dense t in
  if d_matrix (Linalg.Mat.identity n) <= eps then Some 0
  else begin
    (* Precompute P^(2^k) until the power alone has mixed, or until it
       reaches the step budget without mixing (then t_mix > 2^k >=
       max_steps). The budget is applied to the searched answer below:
       stopping as soon as the NEXT power would pass it missed every
       t_mix in (2^k, max_steps]. *)
    let powers = ref [ p ] in
    let rec grow m k =
      if d_matrix m <= eps then Some k
      else if 1 lsl k >= max_steps || k >= 61 then None
      else begin
        let m2 = renormalize_rows (Linalg.Mat.mul m m) in
        powers := m2 :: !powers;
        grow m2 (k + 1)
      end
    in
    match grow p 0 with
    | None -> None
    | Some top ->
        let powers = Array.of_list (List.rev !powers) in
        (* Find the largest t with d(t) > eps by fixing bits from the
           top; the answer is that t plus one. *)
        let accumulated = ref None in
        let steps = ref 0 in
        for k = top - 1 downto 0 do
          let candidate =
            match !accumulated with
            | None -> Linalg.Mat.copy powers.(k)
            | Some q -> renormalize_rows (Linalg.Mat.mul q powers.(k))
          in
          if d_matrix candidate > eps then begin
            accumulated := Some candidate;
            steps := !steps + (1 lsl k)
          end
        done;
        if !steps + 1 <= max_steps then Some (!steps + 1) else None
  end
