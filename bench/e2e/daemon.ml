(* Driving a logitdynd child: start it, warm it, offer it open-loop
   load over two raw connections, read its counters, drain it.

   Serve.Client hides its socket, and an open loop needs to wait on
   both connections and the send schedule at once, so the connections
   here are raw sockets framed with Protocol.write_framed / Reader,
   served by one select loop on one thread. *)

module P = Serve.Protocol

let restart = Child.restart

type conn = { fd : Unix.file_descr; reader : P.Reader.t }

type t = {
  pid : int;
  out : Unix.file_descr;  (** the daemon's stdout *)
  conns : conn array;
  mutable running : bool;
}

let chunk = Bytes.create 65536

(* Reads the daemon's stdout until a line starting with [prefix]
   arrives, within [timeout_s]. *)
let await_line t ~prefix ~timeout_s =
  let start = Common.Clock.monotonic_ns () in
  let buf = Buffer.create 256 in
  let has_line () =
    List.exists
      (fun l -> String.starts_with ~prefix l)
      (String.split_on_char '\n' (Buffer.contents buf))
  in
  let rec go () =
    if has_line () then true
    else
      let left = timeout_s -. Common.Clock.span_s ~since:start in
      if left <= 0. then false
      else
        match restart (fun () -> Unix.select [ t.out ] [] [] left) with
        | [], _, _ -> go ()
        | _ -> (
            match restart (fun () -> Unix.read t.out chunk 0 (Bytes.length chunk)) with
            | 0 -> has_line ()
            | n ->
                Buffer.add_subbytes buf chunk 0 n;
                go ())
  in
  go ()

let connect socket =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> { fd; reader = P.Reader.create () }
  | exception e ->
      Unix.close fd;
      raise e

let kill t =
  if t.running then begin
    t.running <- false;
    Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns;
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (restart (fun () -> Unix.waitpid [] t.pid));
    Unix.close t.out
  end

(* [start ~prog ~socket] spawns [logitdynd serve] (serial, no store) and
   returns once it listens and both connections are open. The daemon
   runs at the lowest priority, so that on a CPU it shares with the
   sender, the sender sends and timestamps on time instead of waiting
   for the daemon's turn to end. *)
let start ~prog ~socket =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Child.spawn ~prog:"nice"
      ~args:[ "-n"; "19"; prog; "serve"; "--socket"; socket; "--no-cache" ]
      ~stdout:w
  in
  Unix.close w;
  let t = { pid; out = r; conns = [||]; running = true } in
  match
    if not (await_line t ~prefix:"logitdynd: listening" ~timeout_s:30.) then
      failwith "logitdynd did not report listening within 30 s";
    Array.init 2 (fun _ -> connect socket)
  with
  | conns -> { t with conns }
  | exception e ->
      kill t;
      raise e

let send c ~id query =
  let b = Buffer.create 256 in
  P.write_framed b (P.encode_request { P.id; deadline_ms = None; query });
  let s = Buffer.contents b in
  let rec go off =
    if off < String.length s then
      let n = String.length s - off in
      go (off + restart (fun () -> Unix.write_substring c.fd s off n))
  in
  go 0

(* Pops every complete frame buffered for [c], after one read. *)
let read_frames c =
  match restart (fun () -> Unix.read c.fd chunk 0 (Bytes.length chunk)) with
  | 0 -> failwith "logitdynd closed a connection"
  | n ->
      P.Reader.feed c.reader chunk ~len:n;
      let rec pop acc =
        match P.Reader.next c.reader with
        | Ok (Some frame) -> pop (frame :: acc)
        | Ok None -> List.rev acc
        | Error msg -> failwith msg
      in
      pop []

(* One request on connection 0, waiting for its reply frame. *)
let call t ~id query =
  let c = t.conns.(0) in
  send c ~id query;
  let rec wait () =
    match P.Reader.next c.reader with
    | Ok (Some frame) -> frame
    | Ok None -> (
        match read_frames c with
        | [] -> wait ()
        | frame :: _ -> frame)
    | Error msg -> failwith msg
  in
  wait ()

type load = {
  latency_ms : float array;  (** per request, from its due time *)
  lateness_ms : float array;  (** per request, send time minus due time *)
  frames : string array;  (** the reply frame of each request *)
}

(* [open_loop t reqs] sends request i (id i + 1) on its connection at
   its due time, whatever has come back, and times each reply from
   that due time. *)
let open_loop t (reqs : Schedule.request array) =
  let n = Array.length reqs in
  let latency_ms = Array.make n 0. and lateness_ms = Array.make n 0. in
  let frames = Array.make n "" in
  let start = Int64.add (Common.Clock.monotonic_ns ()) 20_000_000L in
  let due i = Int64.add start reqs.(i).Schedule.due_ns in
  let last_due_s = if n = 0 then 0. else Int64.to_float reqs.(n - 1).due_ns /. 1e9 in
  let give_up_ns = Int64.add start (Int64.of_float ((last_due_s +. 30.) *. 1e9)) in
  let ms_since ns = Int64.to_float (Int64.sub (Common.Clock.monotonic_ns ()) ns) /. 1e6 in
  let sent = ref 0 and received = ref 0 in
  let fds = Array.to_list (Array.map (fun c -> c.fd) t.conns) in
  while !received < n do
    while !sent < n && Int64.compare (due !sent) (Common.Clock.monotonic_ns ()) <= 0 do
      let i = !sent in
      send t.conns.(reqs.(i).conn) ~id:(i + 1) reqs.(i).query;
      lateness_ms.(i) <- ms_since (due i);
      incr sent
    done;
    let now = Common.Clock.monotonic_ns () in
    if Int64.compare now give_up_ns > 0 then
      failwith (Printf.sprintf "open loop: %d of %d replies missing" (n - !received) n);
    let wait_s =
      if !sent < n then Int64.to_float (Int64.sub (due !sent) now) /. 1e9 else 0.05
    in
    let readable, _, _ =
      restart (fun () -> Unix.select fds [] [] (Float.max 0. wait_s))
    in
    List.iter
      (fun fd ->
        let c = if fd = t.conns.(0).fd then t.conns.(0) else t.conns.(1) in
        List.iter
          (fun frame ->
            match P.decode_response frame with
            | Ok { P.req_id; _ } when req_id >= 1 && req_id <= !sent ->
                let i = req_id - 1 in
                latency_ms.(i) <- ms_since (due i);
                frames.(i) <- frame;
                incr received
            | Ok { P.req_id; _ } ->
                failwith (Printf.sprintf "unexpected reply id %d" req_id)
            | Error msg -> failwith ("undecodable reply: " ^ msg))
          (read_frames c))
      readable
  done;
  { latency_ms; lateness_ms; frames }

let stats t =
  match P.decode_response (call t ~id:0 P.Stats) with
  | Ok { P.result = Ok (P.Stats_r s); _ } -> s
  | _ -> failwith "logitdynd answered Stats with something else"

let peak_kb t = Child.vm_hwm_kb t.pid

(* [stop t] asks for the graceful SIGTERM drain and waits for the
   process; true when it reported a clean shutdown and exited 0. *)
let stop t =
  if not t.running then false
  else begin
    t.running <- false;
    Array.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns;
    Unix.kill t.pid Sys.sigterm;
    let drained = await_line t ~prefix:"logitdynd: drained" ~timeout_s:30. in
    if not drained then (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    let _, status = restart (fun () -> Unix.waitpid [] t.pid) in
    Unix.close t.out;
    drained && status = Unix.WEXITED 0
  end
