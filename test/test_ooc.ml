(* The out-of-core segment subsystem (lib/ooc): on-disk format round
   trips, corruption rejection, block-boundary handling with tiny
   block budgets, and — the load-bearing property — bit-identity of
   the streaming/mmap'd SpMM to the in-RAM chain across access modes
   and pool sizes, including the Kernel.t entry points that Mixing
   and Stationary consume. *)

open Helpers
module Chain = Markov.Chain
module Segment = Ooc.Segment
module Schain = Ooc.Segmented_chain

(* ---------------- plumbing ---------------- *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_tmp f =
  let dir = Filename.temp_file "ooc_test" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ()) (fun () -> f dir)

let get_ok what = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s: unexpected error: %s" what msg

let is_error = function Error _ -> true | Ok _ -> false

let check_bits msg expected actual =
  check_int (msg ^ ": length") (Array.length expected) (Array.length actual);
  Array.iteri
    (fun i x ->
      if Int64.bits_of_float x <> Int64.bits_of_float actual.(i) then
        Alcotest.failf "%s[%d]: expected %h, got %h" msg i x actual.(i))
    expected

(* Random sparse rows, precomputed so the generator is deterministic
   across pack's two passes. Duplicate columns are allowed (Chain
   merges them); weights are normalised to sum to 1 within the row
   tolerance. *)
let random_rows ?(seed = 7) ?(n = 50) ?(max_extra = 4) () =
  let r = rng ~seed () in
  Array.init n (fun i ->
      let extra = Prob.Rng.int r (max_extra + 1) in
      let entries =
        (i, 0.2 +. Prob.Rng.float r)
        :: List.init extra (fun _ -> (Prob.Rng.int r n, 0.01 +. Prob.Rng.float r))
      in
      let total = List.fold_left (fun acc (_, w) -> acc +. w) 0. entries in
      List.map (fun (j, w) -> (j, w /. total)) entries)

let random_chain ?seed ?n ?max_extra () =
  let rows = random_rows ?seed ?n ?max_extra () in
  (rows, Chain.of_function (Array.length rows) (fun i -> rows.(i)))

let pack_rows dir name ?block_nnz rows =
  let path = Filename.concat dir name in
  let info =
    Segment.pack ?block_nnz ~path ~size:(Array.length rows)
      ~row:(fun i -> rows.(i))
      ()
  in
  (path, info)

(* Gather the global CSC arrays back out of a segment's block views. *)
let gather_csc seg =
  let n = Segment.size seg and nnz = Segment.nnz seg in
  let col_start = Array.make (n + 1) 0 in
  col_start.(n) <- nnz;
  let rows = Array.make nnz (-1) in
  let probs = Array.make nnz nan in
  for b = 0 to Segment.num_blocks seg - 1 do
    let (v : Segment.view) = Segment.view seg b in
    let cs : Segment.int_ba = v.cs in
    let vr : Segment.int_ba = v.rows in
    let vp : Segment.float_ba = v.probs in
    for j = v.v_col_lo to v.v_col_hi - 1 do
      col_start.(j) <- Bigarray.Array1.get cs (j - v.cs_shift);
      let k_hi = Bigarray.Array1.get cs (j - v.cs_shift + 1) in
      for k = Bigarray.Array1.get cs (j - v.cs_shift) to k_hi - 1 do
        rows.(k) <- Bigarray.Array1.get vr (k - v.k_shift);
        probs.(k) <- Bigarray.Array1.get vp (k - v.k_shift)
      done
    done
  done;
  (col_start, rows, probs)

let with_open_seg ?access path f =
  let seg = get_ok "open segment" (Segment.open_ ?access path) in
  Fun.protect ~finally:(fun () -> Segment.close seg) (fun () -> f seg)

let corrupt_file path ~at ~with_ =
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      ignore (Unix.lseek fd at Unix.SEEK_SET : int);
      let b = Bytes.make 1 with_ in
      ignore (Unix.write fd b 0 1 : int))

(* ---------------- format round trips ---------------- *)

let pack_roundtrip () =
  with_tmp (fun dir ->
      let rows, chain = random_chain ~seed:11 ~n:50 () in
      (* block_nnz 16 on a ~150-nnz chain forces many blocks, so
         column ranges straddle block boundaries. *)
      let path, info = pack_rows dir "t.seg" ~block_nnz:16 rows in
      check_int "info size" (Chain.size chain) info.Segment.b_n;
      check_int "info nnz" (Chain.nnz chain) info.Segment.b_nnz;
      check_true "several blocks" (info.Segment.b_blocks > 2);
      let col_start, cols, probs = Chain.to_csc chain in
      with_open_seg path (fun seg ->
          check_int "size" (Chain.size chain) (Segment.size seg);
          check_int "nnz" (Chain.nnz chain) (Segment.nnz seg);
          check_int "blocks" info.Segment.b_blocks (Segment.num_blocks seg);
          check_int "file bytes" info.Segment.b_bytes (Segment.file_bytes seg);
          let got_cs, got_rows, got_probs = gather_csc seg in
          Alcotest.(check (array int)) "col_start" col_start got_cs;
          Alcotest.(check (array int)) "rows" cols got_rows;
          check_bits "probs" probs got_probs))

let pack_matches_pack_chain () =
  with_tmp (fun dir ->
      let rows, chain = random_chain ~seed:23 ~n:31 () in
      let path_f, _ = pack_rows dir "f.seg" ~block_nnz:8 rows in
      let path_c = Filename.concat dir "c.seg" in
      let info_c = Segment.pack_chain ~block_nnz:8 ~path:path_c chain in
      check_int "nnz agrees" (Chain.nnz chain) info_c.Segment.b_nnz;
      with_open_seg path_f (fun a ->
          with_open_seg path_c (fun b ->
              let cs_a, r_a, p_a = gather_csc a in
              let cs_b, r_b, p_b = gather_csc b in
              Alcotest.(check (array int)) "col_start" cs_a cs_b;
              Alcotest.(check (array int)) "rows" r_a r_b;
              check_bits "probs" p_a p_b)))

let stream_matches_mmap () =
  with_tmp (fun dir ->
      let rows, _ = random_chain ~seed:5 ~n:29 () in
      let path, _ = pack_rows dir "t.seg" ~block_nnz:8 rows in
      with_open_seg ~access:Segment.Mmap path (fun m ->
          with_open_seg ~access:Segment.Stream path (fun s ->
              check_true "access tags" (Segment.access m = Segment.Mmap);
              check_true "access tags" (Segment.access s = Segment.Stream);
              let cs_m, r_m, p_m = gather_csc m in
              let cs_s, r_s, p_s = gather_csc s in
              Alcotest.(check (array int)) "col_start" cs_m cs_s;
              Alcotest.(check (array int)) "rows" r_m r_s;
              check_bits "probs" p_m p_s)))

let single_column_blocks () =
  (* block_nnz 1 degenerates to one column per block — the extreme
     boundary-straddling case. *)
  with_tmp (fun dir ->
      let rows, chain = random_chain ~seed:3 ~n:17 () in
      let path, info = pack_rows dir "t.seg" ~block_nnz:1 rows in
      check_int "one column per block" (Chain.size chain) info.Segment.b_blocks;
      with_open_seg path (fun seg ->
          let cs, r, p = gather_csc seg in
          let cs', r', p' = Chain.to_csc chain in
          Alcotest.(check (array int)) "col_start" cs' cs;
          Alcotest.(check (array int)) "rows" r' r;
          check_bits "probs" p' p))

let pack_validation () =
  with_tmp (fun dir ->
      let path = Filename.concat dir "bad.seg" in
      check_raises_invalid "size 0" (fun () ->
          ignore (Segment.pack ~path ~size:0 ~row:(fun _ -> [ (0, 1.) ]) ()));
      check_raises_invalid "block_nnz 0" (fun () ->
          ignore
            (Segment.pack ~block_nnz:0 ~path ~size:1 ~row:(fun _ -> [ (0, 1.) ]) ()));
      check_raises_invalid "negative probability" (fun () ->
          ignore
            (Segment.pack ~path ~size:2
               ~row:(fun _ -> [ (0, 1.5); (1, -0.5) ])
               ()));
      check_raises_invalid "column out of range" (fun () ->
          ignore (Segment.pack ~path ~size:2 ~row:(fun _ -> [ (7, 1.) ]) ()));
      (* A failed pack must not leave a partial file behind. *)
      check_false "no partial file" (Sys.file_exists path))

let pack_drift_detected () =
  (* The two passes must see the same rows; a generator that answers
     differently on the second pass fails loudly instead of writing a
     silently wrong segment. *)
  with_tmp (fun dir ->
      let path = Filename.concat dir "drift.seg" in
      let calls = ref 0 in
      let row i =
        incr calls;
        if !calls <= 3 then [ (i, 1.) ] else [ (0, 1.) ]
      in
      check_raises_invalid "drifting generator" (fun () ->
          ignore (Segment.pack ~path ~size:3 ~row ()));
      check_false "no partial file" (Sys.file_exists path))

(* ---------------- verify and corruption ---------------- *)

let verify_clean_and_corrupt () =
  with_tmp (fun dir ->
      let rows, _ = random_chain ~seed:13 ~n:20 () in
      let path, info = pack_rows dir "t.seg" ~block_nnz:8 rows in
      with_open_seg path (fun seg ->
          check_true "fresh file verifies" (Segment.verify seg = Ok ()));
      (* Flip one byte in the probs region (the tail of the file):
         open still succeeds — the header is intact — but verify's
         CRC sweep pinpoints the damaged block. *)
      corrupt_file path ~at:(info.Segment.b_bytes - 3) ~with_:'\xff';
      with_open_seg path (fun seg ->
          match Segment.verify seg with
          | Ok () -> Alcotest.fail "corrupt payload passed verify"
          | Error msgs -> check_true "names a block" (msgs <> [])))

let open_rejects_garbage () =
  with_tmp (fun dir ->
      let rows, _ = random_chain ~seed:17 ~n:12 () in
      let path, _ = pack_rows dir "t.seg" ~block_nnz:8 rows in
      (* Bad magic. *)
      let bad = Filename.concat dir "magic.seg" in
      let contents =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let oc = open_out_bin bad in
      output_string oc contents;
      close_out oc;
      corrupt_file bad ~at:0 ~with_:'\x00';
      check_true "bad magic rejected" (is_error (Segment.open_ bad));
      (* Truncated file. *)
      let trunc = Filename.concat dir "trunc.seg" in
      let oc = open_out_bin trunc in
      output_string oc (String.sub contents 0 (String.length contents / 2));
      close_out oc;
      check_true "truncated rejected" (is_error (Segment.open_ trunc));
      (* Not a file at all. *)
      check_true "missing rejected"
        (is_error (Segment.open_ (Filename.concat dir "nope.seg")));
      let empty = Filename.concat dir "empty.seg" in
      close_out (open_out_bin empty);
      check_true "empty rejected" (is_error (Segment.open_ empty)))

let closed_segment_raises () =
  with_tmp (fun dir ->
      let rows, _ = random_chain ~seed:19 ~n:8 () in
      let path, _ = pack_rows dir "t.seg" rows in
      let seg = get_ok "open" (Segment.open_ path) in
      Segment.close seg;
      Segment.close seg;
      check_raises_invalid "view after close" (fun () ->
          ignore (Segment.view seg 0)))

(* ---------------- evolve bit-identity ---------------- *)

let random_dist r n =
  let v = Array.init n (fun _ -> 0.01 +. Prob.Rng.float r) in
  let total = Array.fold_left ( +. ) 0. v in
  Array.map (fun x -> x /. total) v

let evolve_bit_identity () =
  with_tmp (fun dir ->
      let rows, chain = random_chain ~seed:29 ~n:47 () in
      let n = Chain.size chain in
      let path, _ = pack_rows dir "t.seg" ~block_nnz:8 rows in
      let r = rng ~seed:71 () in
      let srcs =
        Array.init 3 (fun _ -> random_dist r n)
        |> Array.to_list
        |> List.cons (Array.init n (fun i -> if i = 0 then 1. else 0.))
      in
      let expected = List.map (Chain.evolve chain) srcs in
      List.iter
        (fun access ->
          with_open_seg ~access path (fun seg ->
              let sc = Schain.of_segment seg in
              (* One distribution is a 1-row panel of the segment gather. *)
              let run pool =
                List.iteri
                  (fun i src ->
                    let dst = panel_create n in
                    Bigarray.Array1.fill dst nan;
                    Schain.evolve_many_into ?pool sc ~k:1
                      ~src:(panel_of_rows [| src |]) ~dst;
                    check_bits
                      (Printf.sprintf "src %d" i)
                      (List.nth expected i) (panel_row dst ~n 0))
                  srcs
              in
              run None;
              List.iter
                (fun domains ->
                  Exec.Pool.with_pool ~domains (fun pool -> run (Some pool)))
                [ 2; 4 ]))
        [ Segment.Mmap; Segment.Stream ])

let evolve_many_bit_identity () =
  with_tmp (fun dir ->
      let rows, chain = random_chain ~seed:31 ~n:33 () in
      let n = Chain.size chain in
      let path, _ = pack_rows dir "t.seg" ~block_nnz:4 rows in
      let k = 3 in
      let r = rng ~seed:77 () in
      let src_rows = Array.init k (fun _ -> random_dist r n) in
      let src = panel_of_rows src_rows in
      let expected = panel_create (k * n) in
      Chain.evolve_many_into chain ~k ~src ~dst:expected;
      with_open_seg path (fun seg ->
          let sc = Schain.of_segment seg in
          let run pool =
            let dst = panel_create (k * n) in
            Bigarray.Array1.fill dst nan;
            Schain.evolve_many_into ?pool sc ~k ~src ~dst;
            for i = 0 to (k * n) - 1 do
              if
                Int64.bits_of_float (Bigarray.Array1.get dst i)
                <> Int64.bits_of_float (Bigarray.Array1.get expected i)
              then Alcotest.failf "panel cell %d differs" i
            done
          in
          run None;
          List.iter
            (fun domains ->
              Exec.Pool.with_pool ~domains (fun pool -> run (Some pool)))
            [ 2; 4 ]))

(* Signed sources: the gathers skip nothing, so on vectors with
   negative entries, exact zeros and negative zeros they are the plain
   linear map. [Chain.evolve], a 5-row in-RAM panel (one 4-row tile
   plus one leftover row) and the segment kernel must each equal a
   dense product over every source, summed in ascending order; the
   structural zeros of that product add ±0. and change no bits. *)
let signed_panels_are_linear () =
  with_tmp (fun dir ->
      let rows, chain = random_chain ~seed:43 ~n:41 () in
      let n = Chain.size chain in
      let path, _ = pack_rows dir "t.seg" ~block_nnz:8 rows in
      let r = rng ~seed:83 () in
      let k = 5 in
      let src_rows =
        Array.init k (fun _ ->
            Array.init n (fun _ ->
                let u = Prob.Rng.float r in
                if u < 0.2 then 0. else if u < 0.3 then -0. else (2. *. Prob.Rng.float r) -. 1.))
      in
      let dense v =
        Array.init n (fun j ->
            let acc = ref 0. in
            for i = 0 to n - 1 do
              acc := !acc +. (v.(i) *. Chain.prob chain i j)
            done;
            !acc)
      in
      let expected = Array.map dense src_rows in
      let check_panel what dst =
        Array.iteri
          (fun i want -> check_bits (Printf.sprintf "%s row %d" what i) want (panel_row dst ~n i))
          expected
      in
      Array.iteri
        (fun i v -> check_bits (Printf.sprintf "evolve row %d" i) expected.(i) (Chain.evolve chain v))
        src_rows;
      let src = panel_of_rows src_rows in
      let in_ram = panel_create (k * n) in
      Chain.evolve_many_into chain ~k ~src ~dst:in_ram;
      check_panel "in-RAM panel" in_ram;
      with_open_seg path (fun seg ->
          let dst = panel_create (k * n) in
          Schain.evolve_many_into (Schain.of_segment seg) ~k ~src ~dst;
          check_panel "segment panel" dst))

let evolve_argument_checks () =
  with_tmp (fun dir ->
      let rows, _ = random_chain ~seed:37 ~n:9 () in
      let path, _ = pack_rows dir "t.seg" rows in
      with_open_seg path (fun seg ->
          let sc = Schain.of_segment seg in
          let n = Schain.size sc in
          let v = panel_create n in
          check_raises_invalid "src length" (fun () ->
              Schain.evolve_many_into sc ~k:1 ~src:(panel_create (n + 1))
                ~dst:(panel_create n));
          check_raises_invalid "dst length" (fun () ->
              Schain.evolve_many_into sc ~k:1 ~src:v ~dst:(panel_create (n - 1)));
          check_raises_invalid "aliased src/dst" (fun () ->
              Schain.evolve_many_into sc ~k:1 ~src:v ~dst:v);
          check_raises_invalid "negative k" (fun () ->
              let p = panel_create n in
              Schain.evolve_many_into sc ~k:(-1) ~src:p ~dst:(panel_create n))))

(* ---------------- kernel entry points ---------------- *)

let kernel_entry_points () =
  with_tmp (fun dir ->
      let game, _phi = random_potential_game ~players:3 ~strategies:2 41 in
      let beta = 1.2 in
      let chain = Logit.Logit_dynamics.chain game ~beta in
      let n = Chain.size chain in
      let path = Filename.concat dir "g.seg" in
      let _ =
        Segment.pack ~block_nnz:8 ~path ~size:n
          ~row:(Logit.Logit_dynamics.transition_row game ~beta)
          ()
      in
      let pi = Markov.Stationary.by_power chain in
      with_open_seg path (fun seg ->
          let k = Schain.kernel (Schain.of_segment seg) in
          check_int "kernel size" n (Markov.Kernel.size k);
          let pi_seg = Markov.Stationary.by_power_kernel k in
          check_bits "by_power" pi pi_seg;
          let starts = [ 0; 1; n / 2; n - 1 ] in
          let curve = Markov.Mixing.tv_curve chain pi ~starts ~steps:20 in
          let curve_seg = Markov.Mixing.tv_curve_kernel k pi ~starts ~steps:20 in
          check_bits "tv_curve" curve curve_seg;
          let tmix = Markov.Mixing.mixing_time chain pi ~starts in
          let tmix_seg = Markov.Mixing.mixing_time_kernel k pi ~starts in
          check_true "mixing_time" (tmix = tmix_seg);
          check_true "mixing_time found" (tmix <> None);
          Exec.Pool.with_pool ~domains:4 (fun pool ->
              let curve_pool =
                Markov.Mixing.tv_curve_kernel ~pool k pi ~starts ~steps:20
              in
              check_bits "tv_curve pooled" curve curve_pool;
              let pi_pool = Markov.Stationary.by_power_kernel ~pool k in
              check_bits "by_power pooled" pi pi_pool)))

(* ---------------- QCheck round trips ---------------- *)

let qcheck_roundtrip =
  QCheck.Test.make ~count:40 ~name:"segment round trip is bit-identical"
    QCheck.(triple (int_range 1 40) (int_range 1 9) (int_range 0 10_000))
    (fun (n, block_nnz, seed) ->
      with_tmp (fun dir ->
          let rows, chain = random_chain ~seed ~n ~max_extra:3 () in
          let path, _ = pack_rows dir "q.seg" ~block_nnz rows in
          with_open_seg path (fun seg ->
              let cs, r, p = gather_csc seg in
              let cs', r', p' = Chain.to_csc chain in
              let bits_equal a b =
                Array.length a = Array.length b
                && Array.for_all2
                     (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
                     a b
              in
              let src =
                random_dist (Prob.Rng.create (seed + 1)) (Chain.size chain)
              in
              let dst = Chain.evolve chain src in
              let panel = panel_create (Chain.size chain) in
              Schain.evolve_many_into (Schain.of_segment seg) ~k:1
                ~src:(panel_of_rows [| src |]) ~dst:panel;
              let dst' = panel_row panel ~n:(Chain.size chain) 0 in
              cs = cs' && r = r' && bits_equal p p'
              && bits_equal dst dst'
              && Segment.verify seg = Ok ())))

(* ---------------- suites ---------------- *)

let suites =
  [
    ( "ooc.segment",
      [
        test "pack round trip" pack_roundtrip;
        test "pack matches pack_chain" pack_matches_pack_chain;
        test "stream matches mmap" stream_matches_mmap;
        test "single-column blocks" single_column_blocks;
        test "pack validation" pack_validation;
        test "pack drift detected" pack_drift_detected;
        test "verify clean and corrupt" verify_clean_and_corrupt;
        test "open rejects garbage" open_rejects_garbage;
        test "closed segment raises" closed_segment_raises;
        qcheck qcheck_roundtrip;
      ] );
    ( "ooc.evolve",
      [
        test "evolve bit identity" evolve_bit_identity;
        test "evolve_many bit identity" evolve_many_bit_identity;
        test "signed panels are linear" signed_panels_are_linear;
        test "argument checks" evolve_argument_checks;
        test "kernel entry points" kernel_entry_points;
      ] );
  ]
