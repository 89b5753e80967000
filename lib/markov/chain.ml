(* CSR (compressed sparse row) chain storage.

   Row [i] occupies the index range [row_start.(i), row_start.(i+1))
   of the flat [cols]/[probs] arrays; [cols] is strictly increasing
   within each row (guaranteed by [normalize_row], which sums
   duplicates and drops zeros). [cum] holds the per-row running prefix
   sums of [probs] in the same left-to-right order the old linear-scan
   sampler accumulated them, so the binary-search sampler picks exactly
   the same entry for the same uniform draw. *)

(* Transposed (CSC) view, derived lazily from the CSR arrays the first
   time the evolve kernel needs it. Column [j] owns the index range
   [t_col_start.(j), t_col_start.(j+1)) of [t_cols]/[t_probs]:
   [t_cols] lists the *source* states i with P(i,j) > 0 in strictly
   increasing order (the transpose visits CSR rows in ascending i, and
   each row holds at most one entry per column) and [t_probs] the
   matching probabilities, bit-for-bit. Derived data only: never
   serialised — [Chain_codec] frames and recipe keys are computed from
   the CSR arrays alone and stay byte-stable. *)
type csc = {
  t_col_start : int array;
  t_cols : int array;
  t_probs : float array;
}

type t = {
  size : int;
  row_start : int array;
  cols : int array;
  probs : float array;
  cum : float array;
  csc : csc option Atomic.t;
}

let row_sum_tolerance = 1e-9

let normalize_row i entries =
  (* Sum duplicates, validate, and renormalise the row to exact mass 1. *)
  let table = Hashtbl.create (Array.length entries) in
  Array.iter
    (fun (j, p) ->
      if p < 0. || Float.is_nan p then
        invalid_arg (Printf.sprintf "Chain: negative probability in row %d" i);
      if p > 0. then
        Hashtbl.replace table j (p +. Option.value ~default:0. (Hashtbl.find_opt table j)))
    entries;
  let total = Hashtbl.fold (fun _ p acc -> acc +. p) table 0. in
  if Float.abs (total -. 1.) > row_sum_tolerance then
    invalid_arg (Printf.sprintf "Chain: row %d sums to %.12g, expected 1" i total);
  let out = Hashtbl.fold (fun j p acc -> (j, p /. total) :: acc) table [] in
  let out = Array.of_list out in
  Array.sort (fun (a, _) (b, _) -> compare a b) out;
  out

(* The public single-row entry point: exactly the validation +
   normalisation pipeline [of_rows] applies, so external row
   consumers (the out-of-core segment builder) produce probabilities
   bit-identical to an in-RAM chain built from the same generator. *)
let normalized_row ~size i entries =
  if size <= 0 then invalid_arg "Chain.normalized_row: size must be positive";
  Array.iter
    (fun (j, _) ->
      if j < 0 || j >= size then
        invalid_arg (Printf.sprintf "Chain: column %d out of range in row %d" j i))
    entries;
  normalize_row i entries

(* Pack validated per-row tuple arrays into the flat CSR arrays. *)
let pack size checked =
  let nnz = Array.fold_left (fun acc r -> acc + Array.length r) 0 checked in
  let row_start = Array.make (size + 1) 0 in
  let cols = Array.make nnz 0 in
  let probs = Array.make nnz 0. in
  let cum = Array.make nnz 0. in
  let k = ref 0 in
  for i = 0 to size - 1 do
    row_start.(i) <- !k;
    let acc = ref 0. in
    Array.iter
      (fun (j, p) ->
        cols.(!k) <- j;
        probs.(!k) <- p;
        acc := !acc +. p;
        cum.(!k) <- !acc;
        incr k)
      checked.(i)
  done;
  row_start.(size) <- !k;
  { size; row_start; cols; probs; cum; csc = Atomic.make None }

let of_rows ?pool rows =
  let size = Array.length rows in
  if size = 0 then invalid_arg "Chain.of_rows: empty chain";
  let check_row i entries = normalized_row ~size i entries in
  (* Cutover cost: normalising a row is a hash insert + fold + sort per
     entry — call it 64 work units each — so tiny chains build serially
     while logit-sized ones still fan out. *)
  let entries = Array.fold_left (fun acc r -> acc + Array.length r) 0 rows in
  let cost = 64 * (1 + (entries / size)) in
  let checked = Exec.Pool.init_opt ~cost pool ~n:size (fun i -> check_row i rows.(i)) in
  pack size checked

let of_function ?pool n row =
  (* [row] is caller code — for logit chains a full transition-row
     build, microseconds each — so assume macro-task weight rather than
     serialising on the unknowable. *)
  let rows = Exec.Pool.init_opt ~cost:1024 pool ~n (fun i -> Array.of_list (row i)) in
  of_rows ?pool rows

let of_dense m =
  if not (Linalg.Mat.is_square m) then invalid_arg "Chain.of_dense: non-square";
  let n = fst (Linalg.Mat.dims m) in
  of_rows
    (Array.init n (fun i ->
         let entries = ref [] in
         for j = n - 1 downto 0 do
           let p = Linalg.Mat.get m i j in
           (* lint: allow float-equality — exactly-zero entries are structurally absent *)
           if p <> 0. then entries := (j, p) :: !entries
         done;
         Array.of_list !entries))

let to_csr t = (Array.copy t.row_start, Array.copy t.cols, Array.copy t.probs)

let of_csr ~row_start ~cols ~probs =
  let size = Array.length row_start - 1 in
  if size < 1 then invalid_arg "Chain.of_csr: empty chain";
  let nnz = Array.length cols in
  if Array.length probs <> nnz then
    invalid_arg "Chain.of_csr: cols/probs length mismatch";
  if row_start.(0) <> 0 || row_start.(size) <> nnz then
    invalid_arg "Chain.of_csr: row offsets do not span the arrays";
  let row_start = Array.copy row_start in
  let cols = Array.copy cols in
  let probs = Array.copy probs in
  (* [cum] is derived data: recompute it with exactly the accumulation
     order of [pack], so a deserialised chain samples bit-identically
     to the chain that was serialised. *)
  let cum = Array.make nnz 0. in
  for i = 0 to size - 1 do
    let lo = row_start.(i) and hi = row_start.(i + 1) in
    if hi <= lo then
      invalid_arg (Printf.sprintf "Chain.of_csr: empty or negative row %d" i);
    let acc = ref 0. in
    for k = lo to hi - 1 do
      let j = cols.(k) in
      if j < 0 || j >= size then
        invalid_arg (Printf.sprintf "Chain.of_csr: column %d out of range in row %d" j i);
      if k > lo && cols.(k - 1) >= j then
        invalid_arg
          (Printf.sprintf "Chain.of_csr: columns not strictly increasing in row %d" i);
      let p = probs.(k) in
      (* [not (p > 0.)] also rejects NaN. *)
      if not (p > 0.) || p > 1. then
        invalid_arg
          (Printf.sprintf "Chain.of_csr: probability %.12g out of (0, 1] in row %d" p i);
      acc := !acc +. p;
      cum.(k) <- !acc
    done;
    if Float.abs (!acc -. 1.) > 1e-6 then
      invalid_arg (Printf.sprintf "Chain.of_csr: row %d sums to %.12g" i !acc)
  done;
  { size; row_start; cols; probs; cum; csc = Atomic.make None }

let size t = t.size
let nnz t = t.row_start.(t.size)
let degree t i = t.row_start.(i + 1) - t.row_start.(i)

let iter_row t i f =
  for k = t.row_start.(i) to t.row_start.(i + 1) - 1 do
    f t.cols.(k) t.probs.(k)
  done

let row t i =
  let lo = t.row_start.(i) in
  Array.init (degree t i) (fun k -> (t.cols.(lo + k), t.probs.(lo + k)))

let row_list t i = Array.to_list (row t i)

let prob t i j =
  (* Binary search over the strictly increasing column slice of row i. *)
  let lo = ref t.row_start.(i) and hi = ref (t.row_start.(i + 1) - 1) in
  let result = ref 0. in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = t.cols.(mid) in
    if c = j then begin
      result := t.probs.(mid);
      lo := !hi + 1
    end
    else if c < j then lo := mid + 1
    else hi := mid - 1
  done;
  !result

(* Counting transpose of the CSR arrays. Rows are visited in ascending
   i and entries within a row in ascending k, so the per-column source
   lists come out strictly increasing — the ordering the evolve kernel's
   bit-identity argument rests on. *)
let build_csc t =
  let n = t.size in
  let nnz = t.row_start.(n) in
  let t_col_start = Array.make (n + 1) 0 in
  for k = 0 to nnz - 1 do
    let j = t.cols.(k) in
    t_col_start.(j + 1) <- t_col_start.(j + 1) + 1
  done;
  for j = 1 to n do
    t_col_start.(j) <- t_col_start.(j) + t_col_start.(j - 1)
  done;
  let cursor = Array.sub t_col_start 0 n in
  let t_cols = Array.make nnz 0 in
  let t_probs = Array.make nnz 0. in
  for i = 0 to n - 1 do
    for k = t.row_start.(i) to t.row_start.(i + 1) - 1 do
      let j = t.cols.(k) in
      let slot = cursor.(j) in
      t_cols.(slot) <- i;
      t_probs.(slot) <- t.probs.(k);
      cursor.(j) <- slot + 1
    done
  done;
  { t_col_start; t_cols; t_probs }

(* The transpose is built at most once per chain in the common case; a
   concurrent first call may build it twice, but both builds are
   identical and the compare-and-set publishes exactly one of them, so
   every reader sees the same arrays (and the race is on an [Atomic],
   visible to TSan as synchronised). *)
let csc t =
  match Atomic.get t.csc with
  | Some c -> c
  | None ->
      let c = build_csc t in
      if Atomic.compare_and_set t.csc None (Some c) then c
      else (match Atomic.get t.csc with Some c -> c | None -> assert false)

let to_csc t =
  let c = csc t in
  (Array.copy c.t_col_start, Array.copy c.t_cols, Array.copy c.t_probs)

(* --- shared structure (β-families) ----------------------------------- *)

let int_arrays_equal a b =
  a == b
  || begin
       let n = Array.length a in
       n = Array.length b
       && begin
            let i = ref 0 in
            while !i < n && Array.unsafe_get a !i = Array.unsafe_get b !i do
              incr i
            done;
            !i = n
          end
     end

let same_structure a b =
  a.size = b.size
  && int_arrays_equal a.row_start b.row_start
  && int_arrays_equal a.cols b.cols

(* Physically share [base]'s index arrays when the structures agree.
   The probabilities and prefix sums stay the plane's own; the CSC view
   is pre-seeded with [base]'s index arrays plus a fresh [t_probs]
   filled by the same counting-transpose order [build_csc] uses — the
   values are copied straight from [t.probs], no arithmetic, so the
   seeded view is bit-identical to the one the plane would derive
   lazily on its own. A chain whose structure differs from [base]'s
   (sparsity can differ across β when softmax tails underflow) is
   returned unchanged. *)
let with_structure_of ~base t =
  if t == base then t
  else if not (same_structure base t) then t
  else begin
    let bc = csc base in
    let nnz = Array.length bc.t_probs in
    let t_probs = Array.make nnz 0. in
    let cursor = Array.sub bc.t_col_start 0 t.size in
    for i = 0 to t.size - 1 do
      for k = t.row_start.(i) to t.row_start.(i + 1) - 1 do
        let j = t.cols.(k) in
        let slot = cursor.(j) in
        t_probs.(slot) <- t.probs.(k);
        cursor.(j) <- slot + 1
      done
    done;
    {
      t with
      row_start = base.row_start;
      cols = base.cols;
      csc = Atomic.make (Some { bc with t_probs });
    }
  end

(* Cutover cost of one gathered destination: the average row degree
   (one fused multiply-add per stored transition). At logit-chain
   degrees this sends |S| ~ 1024 single-distribution evolves — the
   pooled by_power regression in the spmm_ablation bench records — down the
   serial path, while genuinely large chains still dispatch. *)
let evolve_cost t = Int.max 1 (t.row_start.(t.size) / t.size)

type panel = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Distributions per SpMM block: the src and dst slices of a block are
   re-read/re-written across the whole column sweep, so keep
   2 · block · size doubles (per plane) within a conservative L2
   budget. *)
let panel_block_bytes = 262_144

(* The evolve kernel — the only one. For destinations [j_lo, j_hi) and
   panel rows [r_lo, r_hi] of every plane p it writes
   dst_p(r, j) = Σᵢ src_p(r, i)·P_p(i, j), with the sources of column j
   visited in ascending i (the CSC order) and sources whose mass is not
   > 0. skipped. That is exactly the addition sequence of the
   historical push scatter (which started from a 0. fill, and
   0. +. x = x), so every cell is bit-identical to a row-by-row scatter
   however the cells are grouped into calls. Column j's slice of the
   shared [t_col_start]/[t_cols] arrays is resolved once and then
   drives the gather for every plane. The panel annotations keep every
   Bigarray access on the unboxed path. *)
let gather_range (c : csc) plane_probs ~(src : panel array) ~(dst : panel array)
    ~n ~r_lo ~r_hi ~j_lo ~j_hi =
  let col_start = c.t_col_start and rows = c.t_cols in
  for j = j_lo to j_hi - 1 do
    let klo = Array.unsafe_get col_start j in
    let kstop = Array.unsafe_get col_start (j + 1) - 1 in
    for p = 0 to Array.length plane_probs - 1 do
      let probs = Array.unsafe_get plane_probs p in
      let src : panel = Array.unsafe_get src p in
      let dst : panel = Array.unsafe_get dst p in
      for r = r_lo to r_hi do
        let base = r * n in
        let acc = ref 0. in
        for kk = klo to kstop do
          let mass =
            Bigarray.Array1.unsafe_get src (base + Array.unsafe_get rows kk)
          in
          if mass > 0. then acc := !acc +. (mass *. Array.unsafe_get probs kk)
        done;
        (* lint: allow domain-capture — gather: cell (p, r, j) has exactly one writer, the range owning (block, j) *)
        Bigarray.Array1.unsafe_set dst (base + j) !acc
      done
    done
  done

(* Drive [gather_range] over the whole (plane × row block × destination)
   space. Rows are blocked so a block's panel slices stay cache-resident
   while the matrix columns stream through; the block shrinks with the
   plane count so a fused call keeps a solo call's footprint. Serially
   it is a direct loop. Pooled, each work item is one block's slice of
   consecutive destinations, claimed through a single dispatch; items
   own disjoint cells, so the result is the same for any pool size and
   any block size. Cutover cost of one (block, destination) pair is
   [np] planes × [block] rows of [evolve_cost] multiply-adds, so
   single-distribution evolves and β-grids on below-cutover chains
   never dispatch. *)
let gather ?pool t plane_probs ~k ~src ~dst =
  let n = t.size in
  let np = Array.length plane_probs in
  let c = csc t in
  let block = Int.max 1 (Int.min k (panel_block_bytes / (16 * n * np))) in
  let blocks = (k + block - 1) / block in
  let r_hi b = Int.min k ((b + 1) * block) - 1 in
  match pool with
  | Some pool
    when Exec.Pool.parallelize pool ~cost:(np * block * evolve_cost t)
           ~n:(blocks * n) ->
      let width = Int.max 1 (n / (8 * Exec.Pool.size pool)) in
      let ranges = (n + width - 1) / width in
      Exec.Pool.parallel_for pool ~n:(blocks * ranges) (fun item ->
          let b = item / ranges in
          let j_lo = (item - (b * ranges)) * width in
          gather_range c plane_probs ~src ~dst ~n ~r_lo:(b * block) ~r_hi:(r_hi b)
            ~j_lo ~j_hi:(Int.min n (j_lo + width)))
  | _ ->
      for b = 0 to blocks - 1 do
        gather_range c plane_probs ~src ~dst ~n ~r_lo:(b * block) ~r_hi:(r_hi b)
          ~j_lo:0 ~j_hi:n
      done

let check_panels name ~k ~n ~(src : panel) ~(dst : panel) =
  if Bigarray.Array1.dim src <> k * n || Bigarray.Array1.dim dst <> k * n then
    invalid_arg (name ^ ": panel dimension mismatch")

let evolve_many_into ?pool t ~k ~src ~dst =
  if k < 0 then invalid_arg "Chain.evolve_many_into: negative k";
  check_panels "Chain.evolve_many_into" ~k ~n:t.size ~src ~dst;
  if src == dst then
    invalid_arg "Chain.evolve_many_into: src and dst must be distinct";
  gather ?pool t [| (csc t).t_probs |] ~k ~src:[| src |] ~dst:[| dst |]

let evolve t mu =
  let n = t.size in
  if Array.length mu <> n then invalid_arg "Chain.evolve: dimension mismatch";
  let src = Bigarray.Array1.of_array Bigarray.Float64 Bigarray.C_layout mu in
  let dst : panel = Bigarray.Array1.create Bigarray.Float64 Bigarray.C_layout n in
  evolve_many_into t ~k:1 ~src ~dst;
  let out = Array.make n 0. in
  for i = 0 to n - 1 do
    Array.unsafe_set out i (Bigarray.Array1.unsafe_get dst i)
  done;
  out

let evolve_many_shared_into ?pool planes ~k ~(src : panel array)
    ~(dst : panel array) =
  let np = Array.length planes in
  if np = 0 then invalid_arg "Chain.evolve_many_shared_into: no planes";
  if k < 0 then invalid_arg "Chain.evolve_many_shared_into: negative k";
  let base = planes.(0) in
  Array.iter
    (fun t ->
      if not (same_structure base t) then
        invalid_arg "Chain.evolve_many_shared_into: planes do not share structure")
    planes;
  if Array.length src <> np || Array.length dst <> np then
    invalid_arg "Chain.evolve_many_shared_into: need one src/dst panel per plane";
  Array.iteri
    (fun p s ->
      check_panels "Chain.evolve_many_shared_into" ~k ~n:base.size ~src:s
        ~dst:dst.(p))
    src;
  for p = 0 to np - 1 do
    for q = 0 to np - 1 do
      if dst.(p) == src.(q) then
        invalid_arg "Chain.evolve_many_shared_into: src and dst panels must be distinct";
      if q > p && dst.(p) == dst.(q) then
        invalid_arg "Chain.evolve_many_shared_into: dst panels must be distinct"
    done
  done;
  (* Per-plane probability planes over the shared index arrays: the
     counting-transpose slot order is a pure function of the structure,
     so [base]'s CSC indices address every plane's [t_probs]. *)
  gather ?pool base (Array.map (fun t -> (csc t).t_probs) planes) ~k ~src ~dst

let apply ?pool t f =
  if Array.length f <> t.size then invalid_arg "Chain.apply: dimension mismatch";
  (* Gather-mode like the evolve kernel: row i is read by exactly one
     iteration and out.(i) written once, so chunking rows across
     domains is race-free; accesses are unchecked because the CSR
     invariant bounds them and [f] is length-checked above. *)
  let out = Array.make t.size 0. in
  let row_start = t.row_start and cols = t.cols and probs = t.probs in
  Exec.Pool.iter_opt ~cost:(evolve_cost t) pool ~n:t.size (fun i ->
      let acc = ref 0. in
      let stop = Array.unsafe_get row_start (i + 1) - 1 in
      for k = Array.unsafe_get row_start i to stop do
        acc :=
          !acc
          +. (Array.unsafe_get probs k
              *. Array.unsafe_get f (Array.unsafe_get cols k))
      done;
      (* lint: allow domain-capture — gather: out.(i) has exactly one writer, iteration i *)
      Array.unsafe_set out i !acc);
  out

let to_dense t =
  let m = Linalg.Mat.create t.size t.size 0. in
  for i = 0 to t.size - 1 do
    iter_row t i (fun j p -> Linalg.Mat.set m i j p)
  done;
  m

let sample_step_of t i ~u =
  let lo = t.row_start.(i) and hi = t.row_start.(i + 1) - 1 in
  (* Smallest k with u < cum.(k) — the entry the old linear scan chose;
     a u at or past the accumulated row mass (possible when the
     renormalised probabilities round their sum below the draw) falls
     back to the last entry, which is strictly positive by
     construction. *)
  let cum = t.cum in
  if u >= Array.unsafe_get cum hi then t.cols.(hi)
  else begin
    let a = ref lo and b = ref hi in
    while !a < !b do
      let mid = (!a + !b) / 2 in
      if u < Array.unsafe_get cum mid then b := mid else a := mid + 1
    done;
    Array.unsafe_get t.cols !a
  end

let sample_step rng t i = sample_step_of t i ~u:(Prob.Rng.float rng)

let simulate rng t ~start ~steps =
  if start < 0 || start >= t.size then invalid_arg "Chain.simulate: bad start";
  if steps < 0 then invalid_arg "Chain.simulate: negative steps";
  let trajectory = Array.make (steps + 1) start in
  for k = 1 to steps do
    trajectory.(k) <- sample_step rng t trajectory.(k - 1)
  done;
  trajectory

let hitting_time rng t ~start ~target ~max_steps =
  if start < 0 || start >= t.size then invalid_arg "Chain.hitting_time: bad start";
  if max_steps < 0 then invalid_arg "Chain.hitting_time: negative max_steps";
  let rec go state step =
    if target state then Some step
    else if step >= max_steps then None
    else go (sample_step rng t state) (step + 1)
  in
  go start 0

let successors t i =
  List.init (degree t i) (fun k -> t.cols.(t.row_start.(i) + k))

let reachable_from neighbours size start =
  let seen = Array.make size false in
  seen.(start) <- true;
  let queue = Queue.create () in
  Queue.add start queue;
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    List.iter
      (fun v ->
        if not seen.(v) then begin
          seen.(v) <- true;
          Queue.add v queue
        end)
      (neighbours u)
  done;
  seen

let is_irreducible t =
  let forward = reachable_from (successors t) t.size 0 in
  if not (Array.for_all Fun.id forward) then false
  else begin
    (* Backward reachability needs the reversed adjacency. *)
    let preds = Array.make t.size [] in
    for i = 0 to t.size - 1 do
      iter_row t i (fun j p -> if p > 0. then preds.(j) <- i :: preds.(j))
    done;
    let backward = reachable_from (fun u -> preds.(u)) t.size 0 in
    Array.for_all Fun.id backward
  end

let gcd_aux a b =
  let rec go a b = if b = 0 then a else go b (a mod b) in
  go (Stdlib.abs a) (Stdlib.abs b)

let is_aperiodic t =
  (* Any positive self-loop makes an irreducible chain aperiodic; this
     is the common case for logit chains (the selected player may keep
     her strategy). Otherwise compute the period as the gcd over edges
     (u, v) of level(u) + 1 - level(v) for BFS levels from state 0. *)
  let has_loop = ref false in
  for i = 0 to t.size - 1 do
    iter_row t i (fun j p -> if i = j && p > 0. then has_loop := true)
  done;
  if !has_loop then true
  else begin
    let level = Array.make t.size (-1) in
    level.(0) <- 0;
    let queue = Queue.create () in
    Queue.add 0 queue;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      List.iter
        (fun v ->
          if level.(v) < 0 then begin
            level.(v) <- level.(u) + 1;
            Queue.add v queue
          end)
        (successors t u)
    done;
    let g = ref 0 in
    for u = 0 to t.size - 1 do
      if level.(u) >= 0 then
        iter_row t u (fun v p ->
            if p > 0. && level.(v) >= 0 then
              g := Stdlib.abs (gcd_aux !g (level.(u) + 1 - level.(v))))
    done;
    !g = 1
  end

let is_reversible ?(tol = 1e-9) t pi =
  if Array.length pi <> t.size then invalid_arg "Chain.is_reversible: dimension";
  let ok = ref true in
  for i = 0 to t.size - 1 do
    iter_row t i (fun j p ->
        let flow = pi.(i) *. p in
        let back = pi.(j) *. prob t j i in
        if Float.abs (flow -. back) > tol then ok := false)
  done;
  !ok

let edge_measure t pi i j = pi.(i) *. prob t i j

let lazy_version t =
  of_rows
    (Array.init t.size (fun i ->
         let halved = Array.map (fun (j, p) -> (j, 0.5 *. p)) (row t i) in
         Array.append halved [| (i, 0.5) |]))
