(* Golden outputs for every input a seed can select, committed under
   bench/e2e/golden/ and regenerated with [e2e.exe golden]. *)

module P = Serve.Protocol

let dir = Filename.concat "bench" (Filename.concat "e2e" "golden")

let mixing_file ~n ~beta =
  Filename.concat dir (Printf.sprintf "mixing-ring-n%d-b%g.txt" n beta)

let experiments_file = Filename.concat dir "experiments-quick.txt"
let daemon_file = Filename.concat dir "daemon.txt"

let read path = In_channel.with_open_bin path In_channel.input_all
let write path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

let mixing_args ~n ~beta =
  [ "mixing"; "ring"; "-n"; string_of_int n; "--beta"; Printf.sprintf "%g" beta ]

let experiments_args = [ "experiment"; "all"; "--quick" ]

(* The digest of a reply as the daemon frames it, independent of the
   request id it answers. *)
let reply_digest result =
  Digest.to_hex (Digest.string (P.encode_response { P.req_id = 0; result }))

(* [daemon_digests engine] evaluates every query the daemon traffic can
   hold, serially and in process: one "query<TAB>digest" line each. *)
let daemon_digests engine =
  String.concat ""
    (List.map
       (fun q ->
         Printf.sprintf "%s\t%s\n" (Schedule.describe q)
           (reply_digest (Serve.Engine.eval engine q)))
       Schedule.all_queries)

(* [daemon_digest ()] looks a query's golden reply digest up. *)
let daemon_digest () =
  let table = Hashtbl.create 512 in
  List.iter
    (fun line ->
      match String.split_on_char '\t' line with
      | [ q; d ] -> Hashtbl.replace table q d
      | _ -> ())
    (String.split_on_char '\n' (read daemon_file));
  fun q -> Hashtbl.find_opt table (Schedule.describe q)

let generate ~logitdyn =
  let run args =
    let o = Child.run ~prog:logitdyn ~args:(args @ [ "--no-cache" ]) in
    if not o.Child.ok then
      failwith ("golden: logitdyn failed: " ^ String.concat " " args);
    o.out
  in
  List.iter
    (fun (n, betas) ->
      List.iter
        (fun beta -> write (mixing_file ~n ~beta) (run (mixing_args ~n ~beta)))
        betas)
    [
      (Schedule.spectral_n, Schedule.spectral_betas);
      (Schedule.panel_n, Schedule.panel_betas);
    ];
  write experiments_file (run (experiments_args @ [ "-j"; "1" ]));
  write daemon_file (daemon_digests (Serve.Engine.create ()))
