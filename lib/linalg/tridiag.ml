let hypot a b = Float.hypot a b
let sign_of a b = if b >= 0. then Float.abs a else -.Float.abs a

(* Rotate basis rows [i] and [i + 1] of the flat row-major [z] (row
   length [n]) by the QL rotation (c, s). The basis is kept as rows so
   this sweep is contiguous. It indexes the array directly: dune's dev
   profile compiles with -opaque, so a cross-module [Mat.get]/[Mat.set]
   here would be an out-of-line call boxing a float per element, in the
   loop that dominates a dense eigendecomposition. *)
let rotate_rows z n i c s =
  let r0 = i * n and r1 = (i + 1) * n in
  for k = 0 to n - 1 do
    let z0 = z.(r0 + k) and z1 = z.(r1 + k) in
    z.(r1 + k) <- (s *. z0) +. (c *. z1);
    z.(r0 + k) <- (c *. z0) -. (s *. z1)
  done

(* Implicit QL with Wilkinson shift, accumulating rotations into the
   basis rows of [z] (EISPACK tql2, 0-indexed, with the basis
   transposed). [d] holds the diagonal and receives the eigenvalues;
   [e] holds the off-diagonal in e.(0 .. n-2), e.(n-1) is workspace. *)
let tql2 d e z =
  let n = Array.length d in
  if n = 1 then ()
  else begin
    let eps = epsilon_float in
    for l = 0 to n - 1 do
      let iter = ref 0 in
      let finished = ref false in
      while not !finished do
        (* Find a negligible off-diagonal element. *)
        let m = ref l in
        let searching = ref true in
        while !searching && !m < n - 1 do
          let dd = Float.abs d.(!m) +. Float.abs d.(!m + 1) in
          if Float.abs e.(!m) <= eps *. dd then searching := false else incr m
        done;
        let m = !m in
        if m = l then finished := true
        else begin
          incr iter;
          if !iter > 50 then
            Common.no_convergence "Tridiag: QL iteration did not converge";
          let g = (d.(l + 1) -. d.(l)) /. (2. *. e.(l)) in
          let r = hypot g 1. in
          let g = ref (d.(m) -. d.(l) +. (e.(l) /. (g +. sign_of r g))) in
          let s = ref 1. and c = ref 1. and p = ref 0. in
          let broke = ref false in
          let i = ref (m - 1) in
          while (not !broke) && !i >= l do
            let idx = !i in
            let f = !s *. e.(idx) in
            let b = !c *. e.(idx) in
            let r = hypot f !g in
            e.(idx + 1) <- r;
            (* lint: allow float-equality — exact underflow of the rotation radius *)
            if r = 0. then begin
              d.(idx + 1) <- d.(idx + 1) -. !p;
              e.(m) <- 0.;
              broke := true
            end
            else begin
              s := f /. r;
              c := !g /. r;
              let gg = d.(idx + 1) -. !p in
              let rr = ((d.(idx) -. gg) *. !s) +. (2. *. !c *. b) in
              p := !s *. rr;
              d.(idx + 1) <- gg +. !p;
              g := (!c *. rr) -. b;
              rotate_rows z n idx !c !s;
              decr i
            end
          done;
          if not (!broke && !i >= l) then begin
            if not !broke then begin
              d.(l) <- d.(l) -. !p;
              e.(l) <- !g;
              e.(m) <- 0.
            end
          end
        end
      done
    done
  end

let eigensystem_in_basis ~basis ~diag ~off =
  let n = Array.length diag in
  if n = 0 then invalid_arg "Tridiag.eigensystem: empty matrix";
  if Array.length off <> Int.max 0 (n - 1) then
    invalid_arg "Tridiag.eigensystem: off-diagonal length must be n-1";
  if Mat.dims basis <> (n, n) then invalid_arg "Tridiag.eigensystem: basis must be n x n";
  let d = Array.copy diag in
  (* e needs a slot for e.(n-1) used as workspace. *)
  let e = Array.make n 0. in
  Array.blit off 0 e 0 (n - 1);
  let z = basis.Mat.data in
  tql2 d e z;
  let order = Array.init n Fun.id in
  Array.sort (fun i j -> compare d.(j) d.(i)) order;
  let values = Array.map (fun i -> d.(i)) order in
  let vectors = Mat.init n n (fun i k -> z.((order.(k) * n) + i)) in
  (values, vectors)

let eigensystem ~diag ~off =
  eigensystem_in_basis ~basis:(Mat.identity (Array.length diag)) ~diag ~off

let eigenvalues ~diag ~off = fst (eigensystem ~diag ~off)
