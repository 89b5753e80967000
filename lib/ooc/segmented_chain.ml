(* Distribution evolution over an on-disk segment.

   The gather below replays [Markov.Chain]'s evolve kernel over block
   views instead of in-RAM CSC arrays: per destination column every
   source arrives in ascending order, none skipped, into one register
   accumulator per cell, so every result is bit-identical to the in-RAM
   kernel — serial, pooled, mmap or stream. Blocks own
   disjoint column ranges, hence one writer per destination and
   race-free pool dispatch, the same argument as the in-RAM CSC
   gather. *)

type t = { seg : Segment.t }

let of_segment seg = { seg }

let open_ ?access path = Result.map (fun seg -> { seg }) (Segment.open_ ?access path)

let close t = Segment.close t.seg
let segment t = t.seg
let size t = Segment.size t.seg
let nnz t = Segment.nnz t.seg

(* Cutover cost of one block: its share of the matrix, one
   multiply-add per stored transition — the calibration that routes
   small segments down the pool's serial path. *)
let block_cost t = Int.max 1 (nnz t / Segment.num_blocks t.seg)

(* One block of destinations, k panel rows — the segment's only
   gather. Per (r, j) cell the sources arrive in ascending order, none
   skipped, and are summed left to right as in
   [Chain.evolve_many_into]'s tile and one-row loops alike, so each
   panel row matches the in-RAM kernel bit for bit; a single
   distribution is the k = 1 panel.
   Annotations keep every Bigarray access on the monomorphic unboxed
   path. *)
let evolve_view_many (v : Segment.view) ~k ~n ~(src : Markov.Chain.panel)
    ~(dst : Markov.Chain.panel) =
  let cs : Segment.int_ba = v.Segment.cs in
  let rows : Segment.int_ba = v.Segment.rows in
  let probs : Segment.float_ba = v.Segment.probs in
  let cs_shift = v.Segment.cs_shift and k_shift = v.Segment.k_shift in
  for j = v.Segment.v_col_lo to v.Segment.v_col_hi - 1 do
    let klo = Bigarray.Array1.unsafe_get cs (j - cs_shift) in
    let kstop = Bigarray.Array1.unsafe_get cs (j - cs_shift + 1) - 1 in
    for r = 0 to k - 1 do
      let base = r * n in
      let acc = ref 0. in
      for kk = klo to kstop do
        let mass =
          Bigarray.Array1.unsafe_get src
            (base + Bigarray.Array1.unsafe_get rows (kk - k_shift))
        in
        acc := !acc +. (mass *. Bigarray.Array1.unsafe_get probs (kk - k_shift))
      done;
      (* lint: allow domain-capture — blocks own disjoint column ranges: dst cell (r, j) has exactly one writer *)
      Bigarray.Array1.unsafe_set dst (base + j) !acc
    done
  done

let evolve_many_into ?pool t ~k ~(src : Markov.Chain.panel)
    ~(dst : Markov.Chain.panel) =
  if k < 0 then invalid_arg "Ooc.Segmented_chain.evolve_many_into: negative k";
  let n = size t in
  if Bigarray.Array1.dim src <> k * n || Bigarray.Array1.dim dst <> k * n then
    invalid_arg "Ooc.Segmented_chain.evolve_many_into: panel dimension mismatch";
  if src == dst then
    invalid_arg "Ooc.Segmented_chain.evolve_many_into: src and dst must be distinct";
  let nb = Segment.num_blocks t.seg in
  Exec.Pool.iter_opt
    ~cost:(Int.max 1 k * block_cost t)
    pool ~n:nb
    (fun b -> evolve_view_many (Segment.view t.seg b) ~k ~n ~src ~dst)

let kernel t =
  Markov.Kernel.v ~size:(size t) ~evolve_many_into:(fun ~pool ~k ~src ~dst -> evolve_many_into ?pool t ~k ~src ~dst)
