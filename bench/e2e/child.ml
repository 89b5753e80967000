(* Child processes: spawn a built binary, collect its stdout, and poll
   its peak resident set from /proc while it runs. *)

(* [vm_hwm_kb pid] is the VmHWM line of /proc/<pid>/status, if the
   process still has an address space to report. *)
let vm_hwm_kb pid =
  match open_in (Printf.sprintf "/proc/%d/status" pid) with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line -> (
            try Scanf.sscanf line "VmHWM: %d kB" Option.some
            with Scanf.Scan_failure _ | Failure _ | End_of_file -> scan ())
      in
      scan ()

type outcome = {
  ok : bool;  (** exited with status 0 *)
  out : string;
  seconds : float;
  peak_kb : int option;  (** last VmHWM read before the process exited *)
}

(* [restart f] retries [f] while it fails with EINTR. *)
let rec restart f = try f () with Unix.Unix_error (Unix.EINTR, _, _) -> restart f

let spawn ~prog ~args ~stdout =
  Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin stdout Unix.stderr

(* [run ~prog ~args] runs [prog] to completion. Time runs from just
   before the spawn to the reaping of the process. *)
let run ~prog ~args =
  let r, w = Unix.pipe ~cloexec:true () in
  let start = Common.Clock.monotonic_ns () in
  let pid = spawn ~prog ~args ~stdout:w in
  Unix.close w;
  let out = Buffer.create 4096 in
  let chunk = Bytes.create 65536 in
  let peak = ref None in
  let rec pump () =
    (match vm_hwm_kb pid with Some kb -> peak := Some kb | None -> ());
    match restart (fun () -> Unix.select [ r ] [] [] 0.005) with
    | [], _, _ -> pump ()
    | _ -> (
        match restart (fun () -> Unix.read r chunk 0 (Bytes.length chunk)) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes out chunk 0 n;
            pump ())
  in
  (match Fun.protect ~finally:(fun () -> Unix.close r) pump with
  | () -> ()
  | exception e ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (restart (fun () -> Unix.waitpid [] pid));
      raise e);
  let _, status = restart (fun () -> Unix.waitpid [] pid) in
  let seconds = Common.Clock.span_s ~since:start in
  { ok = status = Unix.WEXITED 0; out = Buffer.contents out; seconds; peak_kb = !peak }

(* This process's CPU affinity, as taskset's list ("0,1", "0-3"). *)
let affinity () =
  let o = run ~prog:"taskset" ~args:[ "-c"; "-p"; string_of_int (Unix.getpid ()) ] in
  match String.rindex_opt o.out ':' with
  | Some i when o.ok ->
      String.trim (String.sub o.out (i + 1) (String.length o.out - i - 1))
  | _ -> failwith ("taskset -p failed: " ^ o.out)

(* [set_affinity cpus] moves this process, and the children it spawns
   from now on, to the CPUs of the taskset list [cpus]. *)
let set_affinity cpus =
  let o = run ~prog:"taskset" ~args:[ "-a"; "-c"; "-p"; cpus; string_of_int (Unix.getpid ()) ] in
  if not o.ok then failwith ("taskset -p " ^ cpus ^ " failed")

(* [on_one_cpu f] runs [f] with this process, and every child it
   spawns meanwhile, on the first CPU it may use, then restores the
   affinity it had. *)
let on_one_cpu f =
  let cpus = affinity () in
  let digits = ref 0 in
  while !digits < String.length cpus && cpus.[!digits] >= '0' && cpus.[!digits] <= '9' do
    incr digits
  done;
  set_affinity (String.sub cpus 0 !digits);
  Fun.protect ~finally:(fun () -> set_affinity cpus) f
