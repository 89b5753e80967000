(* Householder reduction of the symmetric matrix [a] (n×n, row-major,
   overwritten) to tridiagonal form: EISPACK tred2, 0-indexed, with the
   orthogonal basis accumulated in [a] as rows instead of columns, so
   every inner loop below walks contiguous memory (and indexes the raw
   array for the reason given at Tridiag's rotation loop). Writing V for
   EISPACK's working matrix, V(r, c) lives at a.((c * n) + r). Only the
   upper triangle of the input is read. Returns the diagonal and the
   off-diagonal of T (length n - 1, entry i coupling i and i + 1) and
   leaves in the rows of [a] the basis B with input = Bᵀ T B. *)
let tred2 a n =
  let d = Array.make n 0. and e = Array.make n 0. in
  let v r c = a.((c * n) + r) in
  for j = 0 to n - 1 do
    d.(j) <- v (n - 1) j
  done;
  for i = n - 1 downto 1 do
    (* Scale the row to avoid under/overflow. *)
    let scale = ref 0. in
    for k = 0 to i - 1 do
      scale := !scale +. Float.abs d.(k)
    done;
    let h = ref 0. in
    (* lint: allow float-equality — an exactly-zero row needs no reflection *)
    if !scale = 0. then begin
      e.(i) <- d.(i - 1);
      for j = 0 to i - 1 do
        d.(j) <- v (i - 1) j;
        a.((j * n) + i) <- 0.;
        a.((i * n) + j) <- 0.
      done
    end
    else begin
      let scale = !scale in
      (* The Householder vector. *)
      for k = 0 to i - 1 do
        d.(k) <- d.(k) /. scale;
        h := !h +. (d.(k) *. d.(k))
      done;
      let f = d.(i - 1) in
      let g = if f > 0. then -.sqrt !h else sqrt !h in
      e.(i) <- scale *. g;
      h := !h -. (f *. g);
      d.(i - 1) <- f -. g;
      for j = 0 to i - 1 do
        e.(j) <- 0.
      done;
      (* The similarity transformation of the remaining columns. *)
      for j = 0 to i - 1 do
        let f = d.(j) in
        let row = j * n in
        a.((i * n) + j) <- f;
        let g = ref (e.(j) +. (a.(row + j) *. f)) in
        for k = j + 1 to i - 1 do
          let vkj = a.(row + k) in
          g := !g +. (vkj *. d.(k));
          e.(k) <- e.(k) +. (vkj *. f)
        done;
        e.(j) <- !g
      done;
      let h = !h in
      let f = ref 0. in
      for j = 0 to i - 1 do
        e.(j) <- e.(j) /. h;
        f := !f +. (e.(j) *. d.(j))
      done;
      let hh = !f /. (h +. h) in
      for j = 0 to i - 1 do
        e.(j) <- e.(j) -. (hh *. d.(j))
      done;
      for j = 0 to i - 1 do
        let f = d.(j) and g = e.(j) in
        let row = j * n in
        for k = j to i - 1 do
          a.(row + k) <- a.(row + k) -. ((f *. e.(k)) +. (g *. d.(k)))
        done;
        d.(j) <- v (i - 1) j;
        a.(row + i) <- 0.
      done
    end;
    d.(i) <- !h
  done;
  (* Accumulate the transformations. *)
  for i = 0 to n - 2 do
    let row = i * n and next = (i + 1) * n in
    a.(row + n - 1) <- a.(row + i);
    a.(row + i) <- 1.;
    let h = d.(i + 1) in
    (* lint: allow float-equality — exactly-zero h marks a skipped reflection *)
    if h <> 0. then begin
      for k = 0 to i do
        d.(k) <- a.(next + k) /. h
      done;
      for j = 0 to i do
        let col = j * n in
        let g = ref 0. in
        for k = 0 to i do
          g := !g +. (a.(next + k) *. a.(col + k))
        done;
        let g = !g in
        for k = 0 to i do
          a.(col + k) <- a.(col + k) -. (g *. d.(k))
        done
      done
    end;
    for k = 0 to i do
      a.(next + k) <- 0.
    done
  done;
  for j = 0 to n - 1 do
    let last = (j * n) + n - 1 in
    d.(j) <- a.(last);
    a.(last) <- 0.
  done;
  a.((n * n) - 1) <- 1.;
  (* EISPACK's e.(i) couples i - 1 and i. *)
  (d, Array.sub e 1 (n - 1))

let symmetric m =
  if not (Mat.is_symmetric ~tol:1e-8 m) then
    invalid_arg "Eigen.symmetric: matrix is not symmetric";
  let n = fst (Mat.dims m) in
  if n = 0 then ([||], Mat.identity 0)
  else begin
    let basis = Mat.copy m in
    let diag, off = tred2 basis.Mat.data n in
    Tridiag.eigensystem_in_basis ~basis ~diag ~off
  end

let eigenvalues m = fst (symmetric m)

(* Deterministic pseudo-random starting vector; a fixed generator keeps
   spectral computations reproducible without threading an RNG here. *)
let starting_vector seed n =
  let state = ref (Int64.of_int (seed lxor 0x9E3779B9)) in
  let next () =
    state := Int64.add !state 0x9E3779B97F4A7C15L;
    let z = !state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.
  in
  Array.init n (fun _ -> next () -. 0.5)

let power_iteration ?(tol = 1e-12) ?(max_iter = 100_000) ?(seed = 42) av n =
  if n <= 0 then invalid_arg "Eigen.power_iteration: empty dimension";
  let x = ref (starting_vector seed n) in
  let nrm = Vec.norm2 !x in
  x := Vec.scale (1. /. nrm) !x;
  let lambda = ref 0. in
  let continue_ = ref true in
  let iter = ref 0 in
  while !continue_ && !iter < max_iter do
    incr iter;
    let y = av !x in
    let ny = Vec.norm2 y in
    (* lint: allow float-equality — exactly-null iterate: the operator killed x *)
    if ny = 0. then begin
      lambda := 0.;
      continue_ := false
    end
    else begin
      let y = Vec.scale (1. /. ny) y in
      let new_lambda = Vec.dot y (av y) in
      if Float.abs (new_lambda -. !lambda) < tol then continue_ := false;
      lambda := new_lambda;
      x := y
    end
  done;
  (!lambda, !x)

let second_eigenpair_reversible ?(tol = 1e-12) ?(max_iter = 100_000) row pi n =
  if Array.length pi <> n then
    invalid_arg "Eigen.second_eigenvalue_reversible: dimension mismatch";
  let sqrt_pi = Array.map sqrt pi in
  (* A = D^{1/2} P D^{-1/2}: A_{ij} = sqrt(pi_i) P_{ij} / sqrt(pi_j).
     Its top eigenvector is sqrt_pi with eigenvalue 1; we project it
     out of every iterate so the power method converges to λ★. *)
  let top = Vec.scale (1. /. Vec.norm2 sqrt_pi) sqrt_pi in
  let apply x =
    let y = Array.make n 0. in
    for i = 0 to n - 1 do
      let xi_scaled = sqrt_pi.(i) in
      List.iter
        (fun (j, p) ->
          (* lint: allow float-equality — exact-zero skip of absent entries *)
          if p <> 0. then y.(i) <- y.(i) +. (xi_scaled *. p *. x.(j) /. sqrt_pi.(j)))
        (row i)
    done;
    let proj = Vec.dot y top in
    Vec.axpy ~alpha:(-.proj) top y;
    y
  in
  power_iteration ~tol ~max_iter apply n

let second_eigenvalue_reversible ?tol ?max_iter row pi n =
  fst (second_eigenpair_reversible ?tol ?max_iter row pi n)

(* --- General real eigenvalues: Hessenberg reduction + Francis QR --- *)

(* Reduce a square matrix (copied) to upper Hessenberg form by
   elementary stabilised eliminations (the classic [elmhes]). Entries
   below the first subdiagonal become the elimination multipliers and
   are ignored by [hqr]. *)
let hessenberg a =
  let n = fst (Mat.dims a) in
  for m = 1 to n - 2 do
    let x = ref 0. and i = ref m in
    for j = m to n - 1 do
      if Float.abs (Mat.get a j (m - 1)) > Float.abs !x then begin
        x := Mat.get a j (m - 1);
        i := j
      end
    done;
    if !i <> m then begin
      for j = m - 1 to n - 1 do
        let t = Mat.get a !i j in
        Mat.set a !i j (Mat.get a m j);
        Mat.set a m j t
      done;
      for j = 0 to n - 1 do
        let t = Mat.get a j !i in
        Mat.set a j !i (Mat.get a j m);
        Mat.set a j m t
      done
    end;
    (* lint: allow float-equality — an exactly-zero pivot column needs no elimination *)
    if !x <> 0. then
      for i = m + 1 to n - 1 do
        let y = Mat.get a i (m - 1) in
        (* lint: allow float-equality — exact-zero multiplier: row already eliminated *)
        if y <> 0. then begin
          let y = y /. !x in
          Mat.set a i (m - 1) y;
          for j = m to n - 1 do
            Mat.set a i j (Mat.get a i j -. (y *. Mat.get a m j))
          done;
          for j = 0 to n - 1 do
            Mat.set a j m (Mat.get a j m +. (y *. Mat.get a j i))
          done
        end
      done
  done

let sign_of a b = if b >= 0. then Float.abs a else -.Float.abs a

(* Francis double-shift QR on an upper Hessenberg matrix ([hqr] of
   Numerical Recipes, 0-indexed). Destroys [a]; fills [wr], [wi]. *)
let hqr a wr wi =
  let n = fst (Mat.dims a) in
  let anorm = ref 0. in
  for i = 0 to n - 1 do
    for j = Int.max (i - 1) 0 to n - 1 do
      anorm := !anorm +. Float.abs (Mat.get a i j)
    done
  done;
  let t = ref 0. in
  let nn = ref (n - 1) in
  while !nn >= 0 do
    let its = ref 0 in
    let continue_outer = ref true in
    while !continue_outer do
      (* Find the smallest l with negligible subdiagonal a(l, l-1). *)
      let l = ref !nn in
      let searching = ref true in
      while !searching && !l >= 1 do
        let s =
          let s = Float.abs (Mat.get a (!l - 1) (!l - 1)) +. Float.abs (Mat.get a !l !l) in
          (* lint: allow float-equality — exact-zero fallback to the matrix norm *)
          if s = 0. then !anorm else s
        in
        (* lint: allow float-equality — classic |a|+s = s negligibility test *)
        if Float.abs (Mat.get a !l (!l - 1)) +. s = s then begin
          Mat.set a !l (!l - 1) 0.;
          searching := false
        end
        else decr l
      done;
      let l = !l in
      let x = ref (Mat.get a !nn !nn) in
      if l = !nn then begin
        (* One real root found. *)
        wr.(!nn) <- !x +. !t;
        wi.(!nn) <- 0.;
        decr nn;
        continue_outer := false
      end
      else begin
        let y = ref (Mat.get a (!nn - 1) (!nn - 1)) in
        let w = ref (Mat.get a !nn (!nn - 1) *. Mat.get a (!nn - 1) !nn) in
        if l = !nn - 1 then begin
          (* A 2x2 block: two roots (real pair or conjugate pair). *)
          let p = 0.5 *. (!y -. !x) in
          let q = (p *. p) +. !w in
          let z = sqrt (Float.abs q) in
          x := !x +. !t;
          if q >= 0. then begin
            let z = p +. sign_of z p in
            wr.(!nn - 1) <- !x +. z;
            wr.(!nn) <- wr.(!nn - 1);
            (* lint: allow float-equality — guard against dividing by an exact zero *)
            if z <> 0. then wr.(!nn) <- !x -. (!w /. z);
            wi.(!nn - 1) <- 0.;
            wi.(!nn) <- 0.
          end
          else begin
            wr.(!nn - 1) <- !x +. p;
            wr.(!nn) <- !x +. p;
            wi.(!nn - 1) <- -.z;
            wi.(!nn) <- z
          end;
          nn := !nn - 2;
          continue_outer := false
        end
        else begin
          (* No root isolated yet: one double-shift QR sweep. *)
          if !its = 30 then
            Common.no_convergence
              "Eigen.general_spectrum: too many QR iterations";
          if !its = 10 || !its = 20 then begin
            (* Exceptional shift to break symmetry-induced stalls. *)
            t := !t +. !x;
            for i = 0 to !nn do
              Mat.set a i i (Mat.get a i i -. !x)
            done;
            let s =
              Float.abs (Mat.get a !nn (!nn - 1))
              +. Float.abs (Mat.get a (!nn - 1) (!nn - 2))
            in
            y := 0.75 *. s;
            x := !y;
            w := -0.4375 *. s *. s
          end;
          incr its;
          let p = ref 0. and q = ref 0. and r = ref 0. in
          let m = ref (!nn - 2) in
          let found = ref false in
          while (not !found) && !m >= l do
            let z = Mat.get a !m !m in
            let rr = !x -. z in
            let ss = !y -. z in
            p := (((rr *. ss) -. !w) /. Mat.get a (!m + 1) !m) +. Mat.get a !m (!m + 1);
            q := Mat.get a (!m + 1) (!m + 1) -. z -. rr -. ss;
            r := Mat.get a (!m + 2) (!m + 1);
            let s = Float.abs !p +. Float.abs !q +. Float.abs !r in
            p := !p /. s;
            q := !q /. s;
            r := !r /. s;
            if !m = l then found := true
            else begin
              let u = Float.abs (Mat.get a !m (!m - 1)) *. (Float.abs !q +. Float.abs !r) in
              let v =
                Float.abs !p
                *. (Float.abs (Mat.get a (!m - 1) (!m - 1))
                   +. Float.abs z
                   +. Float.abs (Mat.get a (!m + 1) (!m + 1)))
              in
              (* lint: allow float-equality — classic u+v = v negligibility test *)
              if u +. v = v then found := true else decr m
            end
          done;
          let m = !m in
          for i = m + 2 to !nn do
            Mat.set a i (i - 2) 0.
          done;
          for i = m + 3 to !nn do
            Mat.set a i (i - 3) 0.
          done;
          for k = m to !nn - 1 do
            if k <> m then begin
              p := Mat.get a k (k - 1);
              q := Mat.get a (k + 1) (k - 1);
              r := if k <> !nn - 1 then Mat.get a (k + 2) (k - 1) else 0.;
              x := Float.abs !p +. Float.abs !q +. Float.abs !r;
              (* lint: allow float-equality — guard against normalising a null vector *)
              if !x <> 0. then begin
                p := !p /. !x;
                q := !q /. !x;
                r := !r /. !x
              end
            end;
            let s = sign_of (sqrt ((!p *. !p) +. (!q *. !q) +. (!r *. !r))) !p in
            (* lint: allow float-equality — an exactly-null reflector is skipped *)
            if s <> 0. then begin
              if k = m then begin
                if l <> m then Mat.set a k (k - 1) (-.Mat.get a k (k - 1))
              end
              else Mat.set a k (k - 1) (-.s *. !x);
              p := !p +. s;
              x := !p /. s;
              y := !q /. s;
              let z = !r /. s in
              q := !q /. !p;
              r := !r /. !p;
              for j = k to !nn do
                let pp = ref (Mat.get a k j +. (!q *. Mat.get a (k + 1) j)) in
                if k <> !nn - 1 then begin
                  pp := !pp +. (!r *. Mat.get a (k + 2) j);
                  Mat.set a (k + 2) j (Mat.get a (k + 2) j -. (!pp *. z))
                end;
                Mat.set a (k + 1) j (Mat.get a (k + 1) j -. (!pp *. !y));
                Mat.set a k j (Mat.get a k j -. (!pp *. !x))
              done;
              let mmin = Int.min !nn (k + 3) in
              for i = l to mmin do
                let pp = ref ((!x *. Mat.get a i k) +. (!y *. Mat.get a i (k + 1))) in
                if k <> !nn - 1 then begin
                  pp := !pp +. (z *. Mat.get a i (k + 2));
                  Mat.set a i (k + 2) (Mat.get a i (k + 2) -. (!pp *. !r))
                end;
                Mat.set a i (k + 1) (Mat.get a i (k + 1) -. (!pp *. !q));
                Mat.set a i k (Mat.get a i k -. !pp)
              done
            end
          done
        end
      end
    done
  done

let general_spectrum m =
  if not (Mat.is_square m) then invalid_arg "Eigen.general_spectrum: non-square";
  let n = fst (Mat.dims m) in
  if n = 0 then [||]
  else if n = 1 then [| (Mat.get m 0 0, 0.) |]
  else begin
    let a = Mat.copy m in
    hessenberg a;
    let wr = Array.make n 0. and wi = Array.make n 0. in
    hqr a wr wi;
    let values = Array.init n (fun i -> (wr.(i), wi.(i))) in
    Array.sort (fun (r1, i1) (r2, i2) ->
        let c = compare r2 r1 in
        if c <> 0 then c else compare i2 i1)
      values;
    values
  end
