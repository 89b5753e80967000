(* The panel-coalescing scheduler.

   A batch is whatever the server read off its clients in one loop
   iteration. Mixing queries on the same game id and n — across β,
   regardless of which client sent them — are settled together:
   same-β panel-route groups drive ONE Mixing.panel_sweep, and groups
   spanning several β become ONE Markov.Family driven by the fused
   multi-plane sweep (Mixing.family_panel_sweep) over their shared
   index structure; either way each request retires at its own eps, so
   one matrix (or structure) traversal per step serves the whole
   group. Spectral-route requests share their entry's cached
   eigendecomposition per β. Every route evolves the entry's cached
   orbit start set (Engine.starts), as the serial engine does; a
   family group uses it when all its planes share one, and every state
   otherwise. Answers are bit-identical to serial
   evaluation because both run the same primitives over the same
   floats — the coalescing only changes who pays for the matrix
   traffic.

   Deadlines are absolute monotonic nanosecond instants fixed at
   admission; they are enforced between panel steps (and before any
   serial evaluation), never mid-traversal. *)

module P = Protocol

type 'a job = {
  tag : 'a;
  req_id : int;
  deadline_ns : int64 option;
  query : P.query;
}

type stats = {
  mutable batches : int;
  mutable max_batch : int;
  mutable panel_steps : int;
}

let stats_zero () = { batches = 0; max_batch = 0; panel_steps = 0 }

let expired job =
  match job.deadline_ns with
  | None -> false
  | Some d -> Int64.compare (Common.Clock.monotonic_ns ()) d > 0

let guard f =
  match f () with
  | r -> r
  | exception Common.No_convergence msg -> Error (P.Server_error msg)
  | exception Invalid_argument msg -> Error (P.Server_error msg)

(* One coalesced panel sweep over [group], a list of (position, job,
   eps, replicas, seed) all on [e]'s chain. Each request settles at
   its own eps exactly as the serial Mixing.mixing_time would: the eps
   check runs before the deadline and budget checks, so a request
   whose answer lands on its deadline step still gets its answer. *)
let run_panel_group engine stats out e group =
  let jobs = Array.of_list group in
  let settled = Array.make (Array.length jobs) None in
  let remaining = ref (Array.length jobs) in
  let budget = Engine.max_steps engine in
  let steps_taken = ref 0 in
  let sweep () =
    Markov.Mixing.panel_sweep ?pool:(Engine.pool engine) e.Engine.chain
      e.Engine.pi ~starts:(Engine.starts e)
      ~decide:(fun ~step ~worst ->
        steps_taken := step;
        let now = Common.Clock.monotonic_ns () in
        Array.iteri
          (fun i (_, job, eps, _, _) ->
            if Option.is_none settled.(i) then
              if worst <= eps then begin
                settled.(i) <- Some (Ok (Some step));
                decr remaining
              end
              else
                match job.deadline_ns with
                | Some d when Int64.compare now d > 0 ->
                    settled.(i) <- Some (Error P.Deadline_exceeded);
                    decr remaining
                | _ ->
                    if step >= budget then begin
                      settled.(i) <- Some (Ok None);
                      decr remaining
                    end)
          jobs;
        if !remaining = 0 then Some (Ok ()) else None)
  in
  (match guard sweep with
  | Ok () -> ()
  | Error e ->
      (* The sweep itself failed: every still-pending request inherits
         the failure. *)
      Array.iteri
        (fun i s -> if Option.is_none s then settled.(i) <- Some (Error e))
        settled);
  stats.panel_steps <- stats.panel_steps + !steps_taken;
  Array.iteri
    (fun i (pos, _, _, replicas, seed) ->
      out.(pos) <-
        (match settled.(i) with
        | Some (Ok tmix) ->
            guard (fun () ->
                Ok (Engine.mixing_reply_of engine e ~tmix ~replicas ~seed))
        | Some (Error err) -> Error err
        | None -> Error (P.Server_error "panel sweep left a request unsettled")))
    jobs

(* Spectral-route group: the entry's eigendecomposition is computed
   once (then cached on the entry across batches); each request is a
   cheap doubling + binary search at its own eps. *)
let run_spectral_group engine out e group =
  List.iter
    (fun (pos, job, eps, replicas, seed) ->
      out.(pos) <-
        (if expired job then Error P.Deadline_exceeded
         else
           guard (fun () ->
               let tmix = Engine.spectral_tmix e ~eps in
               Ok (Engine.mixing_reply_of engine e ~tmix ~replicas ~seed))))
    group

(* One fused multi-β sweep over [groups], a list of (beta, entry,
   jobs) triples that share a game and n (hence a state space, and
   almost always a sparsity structure): the entries' chains become one
   Markov.Family and every β plane advances through the fused
   multi-plane SpMM — one traversal of the shared index structure per
   step serves the whole cross-β batch. Per plane the decide logic is
   exactly [run_panel_group]'s (eps before deadline before budget), and
   per plane the (step, worst) sequence is bit-identical to a solo
   panel sweep, so each request's answer is unchanged — the widening
   only changes who pays for the index traffic. *)
let run_family_group engine stats out groups =
  let groups = Array.of_list groups in
  let np = Array.length groups in
  let jobs = Array.map (fun (_, _, g) -> Array.of_list g) groups in
  let settled = Array.map (fun ja -> Array.map (fun _ -> None) ja) jobs in
  let remaining = Array.map Array.length jobs in
  let remaining = Array.map ref remaining in
  let budget = Engine.max_steps engine in
  let max_step = ref 0 in
  let sweep () =
    let family =
      Markov.Family.v
        ~betas:(Array.map (fun (beta, _, _) -> beta) groups)
        ~planes:(Array.map (fun (_, e, _) -> e.Engine.chain) groups)
    in
    let pis = Array.map (fun (_, e, _) -> e.Engine.pi) groups in
    (* One start list serves every plane: the planes' shared start set
       when they all have the same one, every state otherwise. *)
    let starts =
      let _, e0, _ = groups.(0) in
      let s0 = Engine.starts e0 in
      if Array.for_all (fun (_, e, _) -> Engine.starts e = s0) groups then s0
      else Engine.all_starts e0
    in
    Markov.Mixing.family_panel_sweep ?pool:(Engine.pool engine) family ~pis
      ~starts
      ~decide:(fun ~plane ~step ~worst ->
        if step > !max_step then max_step := step;
        let now = Common.Clock.monotonic_ns () in
        let sa = settled.(plane) and rem = remaining.(plane) in
        Array.iteri
          (fun i (_, job, eps, _, _) ->
            if Option.is_none sa.(i) then
              if worst <= eps then begin
                sa.(i) <- Some (Ok (Some step));
                decr rem
              end
              else
                match job.deadline_ns with
                | Some d when Int64.compare now d > 0 ->
                    sa.(i) <- Some (Error P.Deadline_exceeded);
                    decr rem
                | _ ->
                    if step >= budget then begin
                      sa.(i) <- Some (Ok None);
                      decr rem
                    end)
          jobs.(plane);
        !rem = 0);
    Ok ()
  in
  (match guard sweep with
  | Ok () -> ()
  | Error e ->
      (* The fused sweep itself failed: every still-pending request of
         every plane inherits the failure. *)
      Array.iter
        (fun sa ->
          Array.iteri
            (fun i s -> if Option.is_none s then sa.(i) <- Some (Error e))
            sa)
        settled);
  (* One fused traversal advances every live plane, so the work this
     group paid for is the deepest plane's step count, not the sum. *)
  stats.panel_steps <- stats.panel_steps + !max_step;
  for p = 0 to np - 1 do
    let _, e, _ = groups.(p) in
    Array.iteri
      (fun i (pos, _, _, replicas, seed) ->
        out.(pos) <-
          (match settled.(p).(i) with
          | Some (Ok tmix) ->
              guard (fun () ->
                  Ok (Engine.mixing_reply_of engine e ~tmix ~replicas ~seed))
          | Some (Error err) -> Error err
          | None -> Error (P.Server_error "panel sweep left a request unsettled")))
      jobs.(p)
  done

let run_batch engine stats jobs =
  let jobs_a = Array.of_list jobs in
  let n = Array.length jobs_a in
  if n = 0 then []
  else begin
    stats.batches <- stats.batches + 1;
    if n > stats.max_batch then stats.max_batch <- n;
    let out = Array.make n (Error (P.Server_error "unprocessed")) in
    (* Coalesce mixing queries by (game, n) — cross-β — so a β-grid's
       worth of requests shares one index-structure traversal; a
       mixing query whose eps the engine rejects is answered at once
       and joins no group. Everything else is evaluated serially in
       arrival order. *)
    let groups = Hashtbl.create 8 in
    let order = ref [] in
    Array.iteri
      (fun pos job ->
        match job.query with
        | P.Mixing { game; n = players; beta; eps; replicas; seed } -> (
            match Engine.check_eps eps with
            | Error err -> out.(pos) <- Error err
            | Ok () ->
                let key = (game, players) in
                if not (Hashtbl.mem groups key) then order := key :: !order;
                Hashtbl.replace groups key
                  ((pos, job, eps, replicas, seed, beta)
                  :: (try Hashtbl.find groups key with Not_found -> [])))
        | q ->
            out.(pos) <-
              (if expired job then Error P.Deadline_exceeded
               else guard (fun () -> Engine.eval engine q)))
      jobs_a;
    List.iter
      (fun ((game, players) as key) ->
        let group = List.rev (Hashtbl.find groups key) in
        (* Sub-group by exact β bits, preserving first-seen order; each
           β resolves its own engine entry (build failures stay
           per-β). *)
        let by_beta = Hashtbl.create 4 in
        let beta_order = ref [] in
        List.iter
          (fun ((_, _, _, _, _, beta) as item) ->
            let bkey = Int64.bits_of_float beta in
            if not (Hashtbl.mem by_beta bkey) then
              beta_order := (bkey, beta) :: !beta_order;
            Hashtbl.replace by_beta bkey
              (item :: (try Hashtbl.find by_beta bkey with Not_found -> [])))
          group;
        let panel_groups = ref [] in
        List.iter
          (fun (bkey, beta) ->
            let sub =
              List.rev_map
                (fun (pos, job, eps, replicas, seed, _) ->
                  (pos, job, eps, replicas, seed))
                (Hashtbl.find by_beta bkey)
            in
            match Engine.entry engine ~game ~n:players ~beta with
            | Error msg ->
                List.iter
                  (fun (pos, _, _, _, _) -> out.(pos) <- Error (P.Bad_request msg))
                  sub
            | Ok e ->
                if Engine.spectral_route engine e then
                  run_spectral_group engine out e sub
                else begin
                  (* Requests already past their deadline skip the
                     sweep. *)
                  let live, dead =
                    List.partition (fun (_, job, _, _, _) -> not (expired job)) sub
                  in
                  List.iter
                    (fun (pos, _, _, _, _) ->
                      out.(pos) <- Error P.Deadline_exceeded)
                    dead;
                  if live <> [] then
                    panel_groups := (beta, e, live) :: !panel_groups
                end)
          (List.rev !beta_order);
        match List.rev !panel_groups with
        | [] -> ()
        | [ (_, e, live) ] -> run_panel_group engine stats out e live
        | panel_groups -> run_family_group engine stats out panel_groups)
      (List.rev !order);
    Array.to_list (Array.mapi (fun i job -> (job, out.(i))) jobs_a)
  end
