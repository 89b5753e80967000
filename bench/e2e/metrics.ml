(* The benchmark's metric table: the one place names, units, directions
   and regression bounds are declared. BENCHMARK.json at the root of
   the repository repeats this table for outside tools; the test suite
   checks that the two agree. *)

type better = Lower | Higher

type t = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (** end-to-end metrics only *)
}

let better_to_string = function Lower -> "lower" | Higher -> "higher"

let better_of_string = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | _ -> None

let e2e name unit_ bound = { name; unit_; better = Lower; bound = Some bound }

(* Every workload reports every one of these (see README.md for the
   samples each is taken over on each workload). *)
let end_to_end =
  [
    e2e "setup_s" "s" 0.25;
    e2e "wall_s" "s" 0.25;
    e2e "p50_ms" "ms" 0.25;
    e2e "p99_ms" "ms" 0.25;
    e2e "peak_rss_mb" "MB" 0.10;
  ]

let experiment_ids =
  [ "e1"; "e2"; "e3"; "e4"; "e5"; "e6"; "e7"; "e8"; "e9" ]
  @ [ "x1"; "x2"; "x3"; "x4"; "x5"; "x6"; "x7"; "x8"; "x9"; "x10" ]

let layer ?(better = Lower) name unit_ = { name; unit_; better; bound = None }

let per_layer =
  [
    (* markov, spectral route (mixing_spectral replay) *)
    layer "markov.decompose_ms" "ms";
    layer "markov.spectral_eval_ms" "ms";
    (* markov, panel route (mixing_panel replay) *)
    layer "markov.panel_step_ms" "ms";
    layer "markov.spmm_step_ms" "ms";
    layer "markov.tv_step_ms" "ms";
    layer "markov.panel_steps" "count";
    layer "markov.spmm_mb_per_step" "MB";
    layer ~better:Higher "markov.spmm_gbps" "GB/s";
    (* exec: the domain pool on the same SpMM, and the experiment sweep *)
    layer "exec.spmm_step_j2_ms" "ms";
    layer ~better:Higher "exec.spmm_speedup_j2" "x";
    layer "exec.dispatches_per_step" "count";
  ]
  @ List.concat_map
      (fun id ->
        [
          layer (Printf.sprintf "experiments.%s.j1_s" id) "s";
          layer (Printf.sprintf "experiments.%s.j2_s" id) "s";
        ])
      experiment_ids
  @ [
      (* games / logit / markov chain build (daemon warm-up replay) *)
      layer "games.build_ms" "ms";
      layer "logit.chain_ms" "ms";
      layer "logit.stationary_ms" "ms";
      layer "markov.csc_ms" "ms";
      layer "markov.reversible_ms" "ms";
      layer "logit.barrier_ms" "ms";
      (* store *)
      layer "store.encode_ms" "ms";
      layer "store.decode_ms" "ms";
      layer "store.put_ms" "ms";
      layer "store.get_ms" "ms";
      layer ~better:Higher "store.hits" "count";
      layer "store.misses" "count";
      layer "store.writes" "count";
      layer "store.bytes" "bytes";
      (* serve: protocol *)
      layer "serve.encode_us" "us";
      layer "serve.decode_us" "us";
      layer "serve.frame_bytes" "bytes";
      (* serve: service *)
      layer "serve.service_ms.mixing" "ms";
      layer "serve.service_ms.stationary" "ms";
      layer "serve.service_ms.simulate" "ms";
      layer "serve.service_p99_ms.mixing" "ms";
      layer "serve.batch_ms" "ms";
      (* serve: queueing *)
      layer "serve.queue_wait_p50_ms" "ms";
      layer "serve.queue_wait_p99_ms" "ms";
      (* serve: scheduler and engine counters *)
      layer "serve.batches" "count";
      layer ~better:Higher "serve.mean_batch" "count";
      layer ~better:Higher "serve.max_batch" "count";
      layer "serve.queue_peak" "count";
      layer "serve.rejected" "count";
      layer "serve.expired" "count";
      layer "serve.failed" "count";
      layer ~better:Higher "serve.chain_cache_hits" "count";
      layer "serve.chain_cache_misses" "count";
    ]

(* (name, why) of every workload, in the order a full run takes them. *)
let workloads =
  [
    ( "mixing_spectral",
      "default CLI route for reversible chains up to 2048 states: the dense \
       eigendecomposition does almost all the work, SpMM none" );
    ( "mixing_panel",
      "CLI panel route at 4096 starts: two 134 MB panels, SpMM plus TV do \
       almost all the work, the eigensolver none" );
    ( "experiments",
      "the paper's tables: the only path through Exec.Pool sweeps and \
       beta-families; cold runs fill the store, warm runs read it back" );
    ( "daemon",
      "one long-lived logitdynd, Poisson open loop, 60/15/25 \
       Stationary/Simulate/Mixing (a design choice, not measured traffic): \
       serve layers set Stationary p50, the engine p99" );
  ]

let find name =
  List.find_opt (fun m -> m.name = name) (end_to_end @ per_layer)
