(* The artifact store: codec round trips (bit-identical, QCheck'd),
   corrupt-input rejection, the content-addressed cache, chain/table
   artifacts, and the resumable sweep driver. *)

open Helpers

(* ---------------- plumbing ---------------- *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_store f =
  let root = Filename.temp_file "logitdyn" ".store" in
  Sys.remove root;
  let cas = Store.Cas.open_ ~dir:root () in
  Fun.protect
    ~finally:(fun () -> try rm_rf root with Sys_error _ -> ())
    (fun () -> f cas)

let bits_equal a b =
  Array.length a = Array.length b
  && begin
       let ok = ref true in
       Array.iteri
         (fun i x ->
           if Int64.bits_of_float x <> Int64.bits_of_float b.(i) then ok := false)
         a;
       !ok
     end

let is_error = function Error _ -> true | Ok _ -> false

let flip_bit s ~byte ~bit =
  let b = Bytes.of_string s in
  Bytes.set b byte (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl bit)));
  Bytes.to_string b

(* Floats including every special value the IEEE bit-pattern encoding
   must survive. *)
let float_special_gen =
  QCheck.Gen.oneof
    [
      QCheck.Gen.float;
      QCheck.Gen.oneofl
        [
          Float.nan;
          Float.infinity;
          Float.neg_infinity;
          0.;
          -0.;
          Float.min_float;
          Float.max_float;
          Float.epsilon;
        ];
    ]

let float_array_arb =
  QCheck.make
    ~print:(fun a ->
      String.concat ";" (Array.to_list (Array.map (Printf.sprintf "%h") a)))
    QCheck.Gen.(array_size (0 -- 40) float_special_gen)

(* ---------------- Codec: dist / curve round trips ---------------- *)

let qcheck_dist_roundtrip =
  QCheck.Test.make ~name:"decode_dist (encode_dist a) is bit-identical"
    ~count:200 float_array_arb (fun a ->
      match Store.Codec.decode_dist (Store.Codec.encode_dist a) with
      | Ok b -> bits_equal a b
      | Error _ -> false)

let qcheck_curve_roundtrip =
  QCheck.Test.make ~name:"decode_curve (encode_curve a) is bit-identical"
    ~count:200 float_array_arb (fun a ->
      match Store.Codec.decode_curve (Store.Codec.encode_curve a) with
      | Ok b -> bits_equal a b
      | Error _ -> false)

let qcheck_kind_confusion =
  QCheck.Test.make ~name:"a dist artifact never decodes as a curve" ~count:50
    float_array_arb (fun a ->
      is_error (Store.Codec.decode_curve (Store.Codec.encode_dist a))
      && is_error (Store.Codec.decode_dist (Store.Codec.encode_curve a)))

let sample_artifact () =
  Store.Codec.encode_dist [| 1.5; -2.25; Float.nan; 0.125; 1e300 |]

let truncation_rejected () =
  let s = sample_artifact () in
  (match Store.Codec.decode_dist s with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "intact artifact rejected: %s" e);
  for len = 0 to String.length s - 1 do
    if not (is_error (Store.Codec.decode_dist (String.sub s 0 len))) then
      Alcotest.failf "truncation to %d bytes accepted" len
  done

let bit_flips_rejected () =
  let s = sample_artifact () in
  for byte = 0 to String.length s - 1 do
    for bit = 0 to 7 do
      if not (is_error (Store.Codec.decode_dist (flip_bit s ~byte ~bit))) then
        Alcotest.failf "flip of bit %d in byte %d accepted" bit byte
    done
  done

let trailing_bytes_rejected () =
  let s = sample_artifact () in
  check_true "trailing garbage rejected"
    (is_error (Store.Codec.decode_dist (s ^ "\x00")));
  check_true "doubled artifact rejected"
    (is_error (Store.Codec.decode_dist (s ^ s)))

let inspect_reports_kind () =
  (match Store.Codec.inspect (sample_artifact ()) with
  | Ok (Store.Codec.Dist, len) -> check_true "payload length positive" (len > 0)
  | Ok _ -> Alcotest.fail "inspect returned the wrong kind"
  | Error e -> Alcotest.failf "inspect rejected a sound artifact: %s" e);
  check_true "inspect rejects garbage"
    (is_error (Store.Codec.inspect "not an artifact"))

let crc32_check_value () =
  (* The standard CRC-32 (IEEE 802.3) check value. *)
  check_int "crc32(\"123456789\")" 0xCBF43926 (Store.Codec.crc32 "123456789");
  check_int "crc32 of nothing" 0 (Store.Codec.crc32 "");
  check_raises_invalid "len past the end" (fun () -> Store.Codec.crc32 ~len:4 "abc");
  check_raises_invalid "negative len" (fun () -> Store.Codec.crc32 ~len:(-1) "abc")

(* The oracle: the byte-at-a-time CRC-32 over a boxed Int32 table that
   the codec used before it sliced by 8. *)
let oracle_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref (Int32.of_int n) in
         for _ = 0 to 7 do
           if Int32.logand !c 1l <> 0l then
             c := Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
           else c := Int32.shift_right_logical !c 1
         done;
         !c))

let oracle_crc32 s ~len =
  let table = Lazy.force oracle_table in
  let c = ref 0xFFFFFFFFl in
  for i = 0 to len - 1 do
    let idx = Int32.to_int (Int32.logand !c 0xFFl) lxor Char.code s.[i] in
    c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.to_int (Int32.logxor !c 0xFFFFFFFFl) land 0xFFFFFFFF

(* Every prefix of strings of 0-64 bytes and of a few KB: each length
   mod 8, so the eight-byte body and the tail loop both run, alone and
   together. *)
let qcheck_crc32_oracle =
  QCheck.Test.make ~name:"crc32 = the byte-at-a-time oracle at every prefix" ~count:120
    QCheck.(
      string_gen_of_size
        Gen.(frequency [ (5, int_range 0 64); (1, int_range 1024 3072) ])
        Gen.char)
    (fun s ->
      let ok = ref true in
      for len = 0 to String.length s do
        if Store.Codec.crc32 ~len s <> oracle_crc32 s ~len then ok := false
      done;
      !ok && Store.Codec.crc32 s = oracle_crc32 s ~len:(String.length s))

(* ---------------- Codec: the u32 frame bound ---------------- *)

let u32_bound_is_typed () =
  check_int "max_payload_bytes is the u32 bound" 0xFFFF_FFFF
    Store.Codec.max_payload_bytes;
  (* In-range u32s encode; out-of-range values fail at encode time
     with a typed error instead of wrapping silently into the frame. *)
  let enc v =
    Store.Codec.frame ~kind:Store.Codec.Dist (fun b -> Store.Codec.Enc.u32 b v)
  in
  ignore (enc 0 : string);
  ignore (enc 0xFFFF_FFFF : string);
  check_raises_invalid "u32 overflow" (fun () -> ignore (enc 0x1_0000_0000));
  check_raises_invalid "negative u32" (fun () -> ignore (enc (-1)))

let oversized_prefix_rejected () =
  (* A frame whose payload declares 2^32-1 array elements but carries
     none: the frame itself is sound (inspect passes), but the
     bounds-checked payload reader must return a clean Error — no
     out-of-bounds read, no 32 GB allocation, no escaping exception. *)
  let s =
    Store.Codec.frame ~kind:Store.Codec.Dist (fun b ->
        Store.Codec.Enc.u32 b 0xFFFF_FFFF)
  in
  (match Store.Codec.inspect s with
  | Ok (Store.Codec.Dist, _) -> ()
  | Ok _ -> Alcotest.fail "inspect returned the wrong kind"
  | Error e -> Alcotest.failf "inspect rejected a sound frame: %s" e);
  check_true "oversized length prefix rejected cleanly"
    (is_error (Store.Codec.decode_dist s))

(* ---------------- Codec: chain artifacts ---------------- *)

let test_chain seed =
  let game, _phi = random_potential_game seed in
  Logit.Logit_dynamics.chain game ~beta:1.2

let chains_bit_identical a b =
  let n = Markov.Chain.size a in
  Markov.Chain.size b = n
  && begin
       let ok = ref true in
       for i = 0 to n - 1 do
         if Markov.Chain.row a i <> Markov.Chain.row b i then ok := false;
         (* The sampler reads the cum array: same u must pick the same
            successor, bit for bit. *)
         List.iter
           (fun u ->
             if
               Markov.Chain.sample_step_of a i ~u
               <> Markov.Chain.sample_step_of b i ~u
             then ok := false)
           [ 0.; 0.124; 0.5; 0.87; 0.999999 ]
       done;
       !ok
     end

let qcheck_chain_roundtrip =
  QCheck.Test.make ~name:"chain artifacts round trip bit-identically"
    ~count:25
    QCheck.(make Gen.(0 -- 10_000))
    (fun seed ->
      let chain = test_chain seed in
      match Markov.Chain_codec.decode (Markov.Chain_codec.encode chain) with
      | Ok decoded -> chains_bit_identical chain decoded
      | Error _ -> false)

let chain_evolve_identical () =
  let chain = test_chain 7 in
  let decoded =
    match Markov.Chain_codec.decode (Markov.Chain_codec.encode chain) with
    | Ok c -> c
    | Error e -> Alcotest.failf "chain decode failed: %s" e
  in
  let n = Markov.Chain.size chain in
  let mu = Array.init n (fun i -> 1. /. float_of_int (i + 1)) in
  let total = Array.fold_left ( +. ) 0. mu in
  let mu = Array.map (fun x -> x /. total) mu in
  check_true "evolve is bit-identical"
    (bits_equal (Markov.Chain.evolve chain mu) (Markov.Chain.evolve decoded mu))

let chain_artifact_corruption () =
  let s = Markov.Chain_codec.encode (test_chain 3) in
  for len = 0 to String.length s - 1 do
    if not (is_error (Markov.Chain_codec.decode (String.sub s 0 len))) then
      Alcotest.failf "truncated chain artifact (%d bytes) accepted" len
  done;
  check_true "dist artifact is not a chain"
    (is_error (Markov.Chain_codec.decode (sample_artifact ())));
  check_true "chain artifact is not a dist"
    (is_error (Store.Codec.decode_dist s))

let of_csr_validation () =
  let chain = test_chain 5 in
  let row_start, cols, probs = Markov.Chain.to_csr chain in
  (* The valid arrays reconstruct. *)
  ignore (Markov.Chain.of_csr ~row_start ~cols ~probs);
  check_raises_invalid "empty chain" (fun () ->
      Markov.Chain.of_csr ~row_start:[| 0 |] ~cols:[||] ~probs:[||]);
  check_raises_invalid "cols/probs mismatch" (fun () ->
      Markov.Chain.of_csr ~row_start ~cols ~probs:(Array.sub probs 0 1));
  check_raises_invalid "offsets do not span" (fun () ->
      let bad = Array.copy row_start in
      bad.(Array.length bad - 1) <- bad.(Array.length bad - 1) + 1;
      Markov.Chain.of_csr ~row_start:bad ~cols ~probs);
  check_raises_invalid "column out of range" (fun () ->
      let bad = Array.copy cols in
      bad.(0) <- Markov.Chain.size chain;
      Markov.Chain.of_csr ~row_start ~cols:bad ~probs);
  check_raises_invalid "columns not strictly increasing" (fun () ->
      let bad = Array.copy cols in
      let swap = bad.(0) in
      bad.(0) <- bad.(1);
      bad.(1) <- swap;
      Markov.Chain.of_csr ~row_start ~cols:bad ~probs);
  check_raises_invalid "row does not sum to one" (fun () ->
      let bad = Array.copy probs in
      bad.(0) <- bad.(0) /. 2.;
      Markov.Chain.of_csr ~row_start ~cols ~probs:bad);
  check_raises_invalid "NaN probability" (fun () ->
      let bad = Array.copy probs in
      bad.(0) <- Float.nan;
      Markov.Chain.of_csr ~row_start ~cols ~probs:bad)

(* ---------------- Codec: table artifacts ---------------- *)

let sample_table () =
  let t =
    Experiments.Table.create ~title:"mixing vs beta (ring n=6)"
      [ ("beta", Experiments.Table.Left); ("t_mix", Experiments.Table.Right) ]
  in
  Experiments.Table.add_row t [ "0.1"; "14" ];
  Experiments.Table.add_row t [ "2.0"; ">1e6" ];
  Experiments.Table.add_note t "quick mode; see EXPERIMENTS.md";
  t

let table_roundtrip () =
  let t = sample_table () in
  match Experiments.Table.decode (Experiments.Table.encode t) with
  | Ok d ->
      Alcotest.(check string)
        "decoded table renders identically" (Experiments.Table.render t)
        (Experiments.Table.render d)
  | Error e -> Alcotest.failf "table decode failed: %s" e

let table_empty_roundtrip () =
  let t = Experiments.Table.create ~title:"" [ ("only", Experiments.Table.Left) ] in
  match Experiments.Table.decode (Experiments.Table.encode t) with
  | Ok d ->
      Alcotest.(check string)
        "empty table round trips" (Experiments.Table.render t)
        (Experiments.Table.render d)
  | Error e -> Alcotest.failf "empty table decode failed: %s" e

let table_list_roundtrip () =
  let ts = [ sample_table (); sample_table () ] in
  match Experiments.Table.decode_list (Experiments.Table.encode_list ts) with
  | Ok ds ->
      check_int "list length" 2 (List.length ds);
      List.iter2
        (fun a b ->
          Alcotest.(check string)
            "each table renders identically" (Experiments.Table.render a)
            (Experiments.Table.render b))
        ts ds
  | Error e -> Alcotest.failf "table list decode failed: %s" e

let table_corruption () =
  let s = Experiments.Table.encode (sample_table ()) in
  for len = 0 to String.length s - 1 do
    if not (is_error (Experiments.Table.decode (String.sub s 0 len))) then
      Alcotest.failf "truncated table artifact (%d bytes) accepted" len
  done;
  check_true "single table is not a table list"
    (is_error (Experiments.Table.decode_list s));
  check_true "table list is not a single table"
    (is_error
       (Experiments.Table.decode (Experiments.Table.encode_list [ sample_table () ])))

(* ---------------- keys ---------------- *)

let key_canonicalisation () =
  let k = Store.Key.v ~kind:"chain" [ ("game", "ring"); ("n", "8") ] in
  let k' = Store.Key.v ~kind:"chain" [ ("game", "ring"); ("n", "8") ] in
  Alcotest.(check string) "same recipe, same digest" (Store.Key.digest k)
    (Store.Key.digest k');
  check_int "digest is 32 hex chars" 32 (String.length (Store.Key.digest k));
  let reordered = Store.Key.v ~kind:"chain" [ ("n", "8"); ("game", "ring") ] in
  check_true "field order is part of the recipe"
    (Store.Key.digest k <> Store.Key.digest reordered);
  let other_kind = Store.Key.v ~kind:"dist" [ ("game", "ring"); ("n", "8") ] in
  check_true "kind is part of the recipe"
    (Store.Key.digest k <> Store.Key.digest other_kind);
  check_raises_invalid "newline in a value" (fun () ->
      Store.Key.v ~kind:"chain" [ ("game", "ri\nng") ]);
  check_raises_invalid "'=' in a field name" (fun () ->
      Store.Key.v ~kind:"chain" [ ("ga=me", "ring") ])

let float_field_exact () =
  Alcotest.(check string)
    "same float, same field"
    (Store.Key.float_field 0.1)
    (Store.Key.float_field 0.1);
  check_true "adjacent floats get different fields"
    (Store.Key.float_field 0.1
    <> Store.Key.float_field (Float.succ 0.1))

(* ---------------- the cache ---------------- *)

let cas_put_get_stats () =
  with_store (fun cas ->
      let key = Store.Key.v ~kind:"test" [ ("x", "1") ] in
      check_true "miss on empty store" (Option.is_none (Store.Cas.get cas key));
      Store.Cas.put cas key "artifact-bytes";
      (match Store.Cas.get cas key with
      | Some s -> Alcotest.(check string) "bytes round trip" "artifact-bytes" s
      | None -> Alcotest.fail "put then get returned nothing");
      check_true "mem sees the object" (Store.Cas.mem cas key);
      let s = Store.Cas.stats cas in
      check_int "one hit" 1 s.Store.Cas.hits;
      check_int "one miss" 1 s.Store.Cas.misses;
      check_int "one write" 1 s.Store.Cas.writes)

let cas_corrupt_objects_dropped () =
  with_store (fun cas ->
      let key = Store.Key.v ~kind:"test" [ ("x", "1") ] in
      Store.Cas.put cas key "definitely not a framed artifact";
      check_true "corrupt object decodes to None"
        (Option.is_none
           (Store.Cas.get_decoded cas key ~decode:Store.Codec.decode_dist));
      check_false "corrupt object was deleted" (Store.Cas.mem cas key);
      (* The rebuilt artifact takes its place. *)
      Store.Cas.put cas key (Store.Codec.encode_dist [| 0.5; 0.5 |]);
      match Store.Cas.get_decoded cas key ~decode:Store.Codec.decode_dist with
      | Some a -> check_true "rebuilt artifact decodes" (bits_equal [| 0.5; 0.5 |] a)
      | None -> Alcotest.fail "sound artifact failed to decode")

let cas_ls_verify_tamper () =
  with_store (fun cas ->
      Store.Cas.put cas
        (Store.Key.v ~kind:"test" [ ("x", "1") ])
        (Store.Codec.encode_dist [| 1. |]);
      Store.Cas.put cas
        (Store.Key.v ~kind:"test" [ ("x", "2") ])
        (Store.Codec.encode_curve [| 0.5; 0.25 |]);
      let entries = Store.Cas.ls cas in
      check_int "two objects listed" 2 (List.length entries);
      check_true "ls is sorted by digest"
        (match entries with
        | [ a; b ] -> a.Store.Cas.digest < b.Store.Cas.digest
        | _ -> false);
      List.iter
        (fun (e : Store.Cas.entry) -> check_true "size recorded" (e.size > 0))
        entries;
      check_true "all objects verify"
        (List.for_all (fun (_, st) -> Result.is_ok st) (Store.Cas.verify cas));
      (* Tamper with one object on disk; verify must report exactly it. *)
      let victim = List.hd entries in
      let oc = open_out victim.Store.Cas.path in
      output_string oc "scribbled over";
      close_out oc;
      let bad =
        List.filter (fun (_, st) -> Result.is_error st) (Store.Cas.verify cas)
      in
      (match bad with
      | [ (e, Error _) ] ->
          Alcotest.(check string)
            "the tampered object is the one reported" victim.Store.Cas.digest
            e.Store.Cas.digest
      | _ -> Alcotest.fail "expected exactly one corrupt object");
      check_true "remove deletes it"
        (Store.Cas.remove cas ~digest:victim.Store.Cas.digest);
      check_int "one object left" 1 (List.length (Store.Cas.ls cas)))

let cas_gc_clear () =
  with_store (fun cas ->
      Store.Cas.put cas (Store.Key.v ~kind:"t" [ ("x", "1") ]) "aa";
      Store.Cas.put cas (Store.Key.v ~kind:"t" [ ("x", "2") ]) "bbbb";
      (* Nothing is older than a day. *)
      let n, _ = Store.Cas.gc cas ~older_than:86_400. in
      check_int "young objects survive gc" 0 n;
      (* Everything is older than -1 seconds. *)
      let n, bytes = Store.Cas.gc cas ~older_than:(-1.) in
      check_int "gc removes both" 2 n;
      check_int "gc reports the bytes" 6 bytes;
      Store.Cas.put cas (Store.Key.v ~kind:"t" [ ("x", "3") ]) "cc";
      check_int "clear removes the rest" 1 (Store.Cas.clear cas);
      check_int "store is empty" 0 (List.length (Store.Cas.ls cas)))

let cas_gc_max_bytes_lru () =
  with_store (fun cas ->
      let put i data =
        Store.Cas.put cas (Store.Key.v ~kind:"t" [ ("i", string_of_int i) ]) data
      in
      put 1 "aaaa";
      put 2 "bb";
      put 3 "cccccc";
      (* A segment file beside the objects shares the byte budget. *)
      let seg =
        Store.Cas.segment_path cas (Store.Key.v ~kind:"segment" [ ("i", "1") ])
      in
      let oc = open_out_bin seg in
      output_string oc "sssss";
      close_out oc;
      (match Store.Cas.ls_segments cas with
      | [ e ] -> check_int "segment listed with its size" 5 e.Store.Cas.size
      | _ -> Alcotest.fail "expected exactly one segment");
      (* Stage write times so the LRU order is deterministic: the 4-byte
         object is the least recently written, then the segment, then
         the 2-byte, then the 6-byte object. *)
      let now = Common.Clock.wall_s () in
      let set_age path age = Unix.utimes path (now -. age) (now -. age) in
      let by_size sz =
        (List.find (fun (e : Store.Cas.entry) -> e.size = sz) (Store.Cas.ls cas))
          .Store.Cas.path
      in
      set_age (by_size 4) 400.;
      set_age seg 300.;
      set_age (by_size 2) 200.;
      set_age (by_size 6) 100.;
      check_raises_invalid "negative budget" (fun () ->
          ignore (Store.Cas.gc ~max_bytes:(-1) cas ~older_than:86_400.));
      (* 17 bytes on disk, budget 9: evict the 4-byte object then the
         5-byte segment (oldest first); the survivors fit. *)
      let n, bytes = Store.Cas.gc ~max_bytes:9 cas ~older_than:86_400. in
      check_int "evicts the two least-recently written" 2 n;
      check_int "frees their bytes" 9 bytes;
      check_int "the segment was evicted" 0
        (List.length (Store.Cas.ls_segments cas));
      let sizes =
        List.sort compare
          (List.map (fun (e : Store.Cas.entry) -> e.Store.Cas.size)
             (Store.Cas.ls cas))
      in
      check_true "the newest objects survive" (sizes = [ 2; 6 ]);
      (* A budget the store already fits under is a no-op. *)
      let n, bytes = Store.Cas.gc ~max_bytes:1_000_000 cas ~older_than:86_400. in
      check_int "no-op under budget" 0 n;
      check_int "no bytes freed" 0 bytes)

let cas_atomic_leaves_no_temps () =
  with_store (fun cas ->
      for i = 1 to 20 do
        Store.Cas.put cas
          (Store.Key.v ~kind:"t" [ ("i", string_of_int i) ])
          (String.make (i * 10) 'x')
      done;
      let tmp = Filename.concat (Store.Cas.dir cas) "tmp" in
      check_int "no temp files left behind" 0 (Array.length (Sys.readdir tmp));
      check_int "all objects present" 20 (List.length (Store.Cas.ls cas)))

let chain_codec_cached_builds_once () =
  with_store (fun cas ->
      let builds = ref 0 in
      let build () =
        incr builds;
        test_chain 11
      in
      let key =
        Markov.Chain_codec.recipe ~game:"test" ~size:8 ~beta:1.2
          ~variant:"sequential-logit" ()
      in
      let c1 = Markov.Chain_codec.cached ~store:cas key build in
      let c2 = Markov.Chain_codec.cached ~store:cas key build in
      check_int "second call served from the store" 1 !builds;
      check_true "cached chain is bit-identical" (chains_bit_identical c1 c2);
      (* Without a store every call builds. *)
      let c3 = Markov.Chain_codec.cached key build in
      check_int "no store, no memoisation" 2 !builds;
      check_true "uncached build agrees" (chains_bit_identical c1 c3))

(* ---------------- the sweep driver ---------------- *)

let with_serial_sweep f =
  Fun.protect ~finally:(fun () -> Experiments.Sweep.set_jobs 1) f

let sweep_map_input_order () =
  with_serial_sweep (fun () ->
      let xs = List.init 23 Fun.id in
      let expected = List.map (fun x -> (10 * x) + 1) xs in
      List.iter
        (fun jobs ->
          Experiments.Sweep.set_jobs jobs;
          let ys = Experiments.Sweep.map (fun x -> (10 * x) + 1) xs in
          check_true
            (Printf.sprintf "map preserves input order under %d job(s)" jobs)
            (ys = expected))
        [ 1; 2; 4 ])

let sweep_map_cached_input_order () =
  with_serial_sweep (fun () ->
      with_store (fun cas ->
          let xs = List.init 17 Fun.id in
          let key i =
            Store.Key.v ~kind:"point" [ ("i", string_of_int i) ]
          in
          let encode y = Store.Codec.encode_dist [| y |] in
          let decode s =
            Result.map
              (fun a -> if Array.length a = 1 then a.(0) else Float.nan)
              (Store.Codec.decode_dist s)
          in
          let f i = float_of_int (7 * i) in
          let expected = List.map f xs in
          List.iter
            (fun jobs ->
              Experiments.Sweep.set_jobs jobs;
              let ys =
                Experiments.Sweep.map_cached ~store:cas ~key ~encode ~decode f
                  xs
              in
              check_true
                (Printf.sprintf
                   "map_cached preserves input order under %d job(s)" jobs)
                (ys = expected))
            [ 1; 2; 4 ]))

let sweep_set_jobs_shuts_down_previous () =
  with_serial_sweep (fun () ->
      Experiments.Sweep.set_jobs 2;
      let old =
        match Experiments.Sweep.current_pool () with
        | Some p -> p
        | None -> Alcotest.fail "set_jobs 2 installed no pool"
      in
      Experiments.Sweep.set_jobs 3;
      check_raises_invalid "the replaced pool is shut down" (fun () ->
          Exec.Pool.map old ~n:4 Fun.id);
      Experiments.Sweep.set_jobs 1;
      check_true "jobs <= 1 reverts to serial"
        (Option.is_none (Experiments.Sweep.current_pool ())))

let sweep_resume_skips_completed () =
  with_serial_sweep (fun () ->
      with_store (fun cas ->
          let grid = List.init 10 Fun.id in
          let key i =
            Store.Key.v ~kind:"point" [ ("i", string_of_int i) ]
          in
          let encode y = Store.Codec.encode_dist [| y |] in
          let decode s =
            Result.map
              (fun a -> if Array.length a = 1 then a.(0) else Float.nan)
              (Store.Codec.decode_dist s)
          in
          let calls = ref 0 in
          let f i =
            incr calls;
            float_of_int (3 * i)
          in
          let expected = List.map (fun i -> float_of_int (3 * i)) grid in
          (* A run killed after 4 of 10 points: only those artifacts
             exist when the sweep restarts. *)
          List.iter
            (fun i -> Store.Cas.put cas (key i) (encode (float_of_int (3 * i))))
            [ 0; 1; 2; 3 ];
          let ys =
            Experiments.Sweep.map_cached ~store:cas ~key ~encode ~decode f grid
          in
          check_int "only the 6 missing points were computed" 6 !calls;
          check_true "results are complete and in input order" (ys = expected);
          (* A completed sweep re-runs without computing anything. *)
          let ys2 =
            Experiments.Sweep.map_cached ~store:cas ~key ~encode ~decode f grid
          in
          check_int "second run computes nothing" 6 !calls;
          check_true "and returns the same results" (ys2 = expected);
          (* A corrupt checkpoint is recomputed, not trusted. *)
          Store.Cas.put cas (key 5) "scribbled";
          let ys3 =
            Experiments.Sweep.map_cached ~store:cas ~key ~encode ~decode f grid
          in
          check_int "exactly the corrupt point was recomputed" 7 !calls;
          check_true "results still correct" (ys3 = expected)))

(* ---------------- atomic writes ---------------- *)

let write_atomic_basic () =
  let dir = Filename.temp_file "logitdyn" ".io" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ())
    (fun () ->
      let path = Filename.concat dir "out.json" in
      Store.Io.write_atomic ~path "first";
      (match Store.Io.read_file path with
      | Some s -> Alcotest.(check string) "contents written" "first" s
      | None -> Alcotest.fail "file missing after write_atomic");
      Store.Io.write_atomic ~path "second, longer contents";
      (match Store.Io.read_file path with
      | Some s ->
          Alcotest.(check string) "overwrite replaces atomically"
            "second, longer contents" s
      | None -> Alcotest.fail "file missing after overwrite");
      check_int "no temp files left next to the target" 1
        (Array.length (Sys.readdir dir)))

let suites =
  [
    ( "store.codec",
      [
        qcheck qcheck_dist_roundtrip;
        qcheck qcheck_curve_roundtrip;
        qcheck qcheck_kind_confusion;
        test "every truncation is rejected" truncation_rejected;
        test "every single-bit flip is rejected" bit_flips_rejected;
        test "trailing bytes are rejected" trailing_bytes_rejected;
        test "inspect reports kind and length" inspect_reports_kind;
        test "crc32 matches the IEEE check value" crc32_check_value;
        test "u32 encoding is bounds-typed" u32_bound_is_typed;
        test "oversized length prefixes are rejected" oversized_prefix_rejected;
        qcheck qcheck_crc32_oracle;
      ] );
    ( "store.chain-codec",
      [
        qcheck qcheck_chain_roundtrip;
        test "decoded chains evolve bit-identically" chain_evolve_identical;
        test "corrupt chain artifacts are rejected" chain_artifact_corruption;
        test "of_csr revalidates the CSR invariant" of_csr_validation;
      ] );
    ( "store.table-codec",
      [
        test "table round trips to identical render" table_roundtrip;
        test "empty table round trips" table_empty_roundtrip;
        test "table lists round trip" table_list_roundtrip;
        test "corrupt table artifacts are rejected" table_corruption;
      ] );
    ( "store.key",
      [
        test "canonical digests" key_canonicalisation;
        test "float fields are exact" float_field_exact;
      ] );
    ( "store.cas",
      [
        test "put/get/mem and the counters" cas_put_get_stats;
        test "corrupt objects are dropped and rebuilt" cas_corrupt_objects_dropped;
        test "ls and verify report tampering" cas_ls_verify_tamper;
        test "gc by age and clear" cas_gc_clear;
        test "gc max-bytes evicts LRU across objects and segments"
          cas_gc_max_bytes_lru;
        test "atomic writes leave no temp files" cas_atomic_leaves_no_temps;
        test "chain builds memoise through the store" chain_codec_cached_builds_once;
      ] );
    ( "store.sweep",
      [
        test "map preserves input order across pool sizes" sweep_map_input_order;
        test "map_cached preserves input order across pool sizes"
          sweep_map_cached_input_order;
        test "set_jobs shuts down the previous pool"
          sweep_set_jobs_shuts_down_previous;
        test "an interrupted sweep resumes without recomputing"
          sweep_resume_skips_completed;
      ] );
    ("store.io", [ test "write_atomic writes and overwrites" write_atomic_basic ]);
  ]
