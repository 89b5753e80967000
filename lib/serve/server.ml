(* The logitdynd server: a single-threaded select loop over a
   Unix-domain socket.

   Life of a request: bytes arrive on a client fd → the incremental
   Reader pops length-prefixed Codec frames → decode_request →
   admission control (the per-iteration queue is bounded; beyond it
   every request is rejected with the typed Overloaded, never silently
   dropped) → the whole queue goes to Scheduler.run_batch, which
   coalesces same-chain mixing work into one panel sweep → responses
   are buffered per client and flushed as fds become writable.

   Because one loop iteration reads every readable client before
   processing, requests that arrive while a batch is computing pile up
   in kernel buffers and all land in the next batch — concurrency
   converts into batch width, which is exactly the coalescing the
   panel kernel wants.

   Shutdown (stop, typically from a SIGTERM handler) is graceful by
   construction: the loop performs one final drain — read whatever the
   connected clients already sent, process it, flush every response
   with blocking writes — so in-flight pipelined requests never lose
   their responses. Only then does it close fds and unlink the
   socket. *)

module P = Protocol

type client = {
  fd : Unix.file_descr;
  reader : P.Reader.t;
  out : Buffer.t;  (* framed responses not yet taken for writing *)
  mutable sending : string;  (* taken from [out]; written up to [sent] *)
  mutable sent : int;
  mutable eof : bool;  (* peer closed its write side; flush then close *)
  mutable dead : bool;  (* connection failed; reap without flushing *)
}

type counters = {
  mutable served : int;
  mutable rejected : int;
  mutable expired : int;
  mutable failed : int;
  mutable queue_peak : int;
}

type t = {
  listen_fd : Unix.file_descr;
  socket_path : string;
  engine : Engine.t;
  max_queue : int;
  max_clients : int;
  stop_flag : bool Atomic.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  sched : Scheduler.stats;
  counters : counters;
  mutable clients : client list;
}

let default_max_queue = 1024
let default_max_clients = 64

let create ?(max_queue = default_max_queue) ?(max_clients = default_max_clients)
    ~engine ~socket_path () =
  if max_queue < 0 then invalid_arg "Server.create: negative max_queue";
  if max_clients < 1 then invalid_arg "Server.create: need max_clients >= 1";
  if String.length socket_path + 1 > 104 then
    (* sun_path is 104-108 bytes depending on the platform. *)
    invalid_arg "Server.create: socket path too long";
  (try Unix.unlink socket_path with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_nonblock listen_fd;
  Unix.bind listen_fd (Unix.ADDR_UNIX socket_path);
  Unix.listen listen_fd 64;
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  {
    listen_fd;
    socket_path;
    engine;
    max_queue;
    max_clients;
    stop_flag = Atomic.make false;
    wake_r;
    wake_w;
    sched = Scheduler.stats_zero ();
    counters = { served = 0; rejected = 0; expired = 0; failed = 0; queue_peak = 0 };
    clients = [];
  }

let socket_path t = t.socket_path

(* Safe to call from a signal handler or another domain: one atomic
   store and one pipe write (EAGAIN on a full pipe is fine — the byte
   already in it will wake the loop). *)
let stop t =
  Atomic.set t.stop_flag true;
  (* the byte count is irrelevant: any successful write wakes the
     select loop, and a full pipe (EAGAIN) means a wake-up is already
     pending *)
  (* lint: allow unchecked-unix-result *)
  try ignore (Unix.write_substring t.wake_w "x" 0 1)
  with Unix.Unix_error _ -> ()

let stats_reply t =
  let chain_cache_hits, chain_cache_misses = Engine.cache_stats t.engine in
  let store_hits, store_misses = Engine.store_stats t.engine in
  P.Stats_r
    {
      P.served = t.counters.served;
      rejected = t.counters.rejected;
      expired = t.counters.expired;
      failed = t.counters.failed;
      batches = t.sched.Scheduler.batches;
      max_batch = t.sched.Scheduler.max_batch;
      panel_steps = t.sched.Scheduler.panel_steps;
      queue_peak = t.counters.queue_peak;
      chain_cache_hits;
      chain_cache_misses;
      store_hits;
      store_misses;
    }

(* Frames [resp] onto [c]'s output and returns true. A reply that
   cannot be framed (beyond Protocol.max_frame_len; the engine's caps
   keep every engine reply inside it) goes out as a Server_error
   instead, and [respond] returns false: the daemon never dies on a
   reply. *)
let respond c resp =
  let error msg =
    P.write_framed c.out
      (P.encode_response { resp with P.result = Error (P.Server_error msg) });
    false
  in
  match P.encode_response resp with
  | frame when String.length frame <= P.max_frame_len ->
      P.write_framed c.out frame;
      true
  | frame ->
      error
        (Printf.sprintf "reply of %d bytes exceeds the %d-byte frame limit"
           (String.length frame) P.max_frame_len)
  | exception Invalid_argument msg -> error msg

(* --- the read side ---------------------------------------------------- *)

let accept_pass t =
  let rec go () =
    match Unix.accept t.listen_fd with
    | fd, _ ->
        if List.length t.clients >= t.max_clients then
          (* shedding an over-capacity connection must never kill the
             accept loop: close itself can raise (EINTR, or ECONNRESET
             from a peer that already hung up) *)
          try Unix.close fd with Unix.Unix_error _ -> ()
        else begin
          Unix.set_nonblock fd;
          t.clients <-
            {
              fd;
              reader = P.Reader.create ();
              out = Buffer.create 4096;
              sending = "";
              sent = 0;
              eof = false;
              dead = false;
            }
            :: t.clients
        end;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (_, _, _) -> ()
  in
  go ()

let read_buf = Bytes.create 65536

(* Pull every complete frame out of [c], admitting jobs into [queue]
   (bounded by max_queue) and answering Stats / Overloaded / protocol
   errors immediately. *)
let harvest_frames t c queue =
  let rec go () =
    match P.Reader.next c.reader with
    | Error _ ->
        (* Unrecoverable framing corruption: tell the client once and
           stop reading it. *)
        ignore
          (respond c { P.req_id = 0; result = Error (P.Bad_request "corrupt frame") });
        t.counters.failed <- t.counters.failed + 1;
        c.eof <- true
    | Ok None -> ()
    | Ok (Some frame) ->
        (match P.decode_request frame with
        | Error msg ->
            ignore (respond c { P.req_id = 0; result = Error (P.Bad_request msg) });
            t.counters.failed <- t.counters.failed + 1
        | Ok req -> (
            match req.P.query with
            | P.Stats ->
                (* Counters are cheap and must not sit behind a heavy
                   batch: answered at read time. *)
                ignore (respond c { P.req_id = req.P.id; result = Ok (stats_reply t) })
            | query ->
                if Queue.length queue >= t.max_queue then begin
                  ignore (respond c { P.req_id = req.P.id; result = Error P.Overloaded });
                  t.counters.rejected <- t.counters.rejected + 1
                end
                else begin
                  let deadline_ns =
                    Option.map
                      (fun ms ->
                        Int64.add
                          (Common.Clock.monotonic_ns ())
                          (Int64.mul (Int64.of_int ms) 1_000_000L))
                      req.P.deadline_ms
                  in
                  Queue.add
                    { Scheduler.tag = c; req_id = req.P.id; deadline_ns; query }
                    queue
                end));
        go ()
  in
  go ()

let read_pass t c queue =
  let rec go () =
    match Unix.read c.fd read_buf 0 (Bytes.length read_buf) with
    | 0 -> c.eof <- true
    | n ->
        P.Reader.feed c.reader read_buf ~len:n;
        harvest_frames t c queue;
        if not c.eof then go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (_, _, _) -> c.dead <- true
  in
  if not (c.eof || c.dead) then go ()

(* --- the write side --------------------------------------------------- *)

let pending_out c = String.length c.sending - c.sent + Buffer.length c.out

(* The bytes to write next, from [c.sent] on: once [c.sending] is
   written out, whatever [out] has gathered since is taken as the next
   string. Each byte is copied out of [out] once, however many partial
   writes it takes. [Buffer.clear] keeps the capacity, so a buffer that
   held more than [out_keep_limit] bytes is reset instead: one large
   reply does not pin its memory to the connection. *)
let out_keep_limit = 1 lsl 20

let unsent c =
  if c.sent = String.length c.sending then begin
    c.sending <- Buffer.contents c.out;
    c.sent <- 0;
    if String.length c.sending > out_keep_limit then Buffer.reset c.out
    else Buffer.clear c.out
  end;
  String.length c.sending - c.sent

let write_pass c =
  let rec go () =
    let n = unsent c in
    if n > 0 then begin
      match Unix.write_substring c.fd c.sending c.sent n with
      | written ->
          c.sent <- c.sent + written;
          if written > 0 then go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
      | exception Unix.Unix_error (_, _, _) -> c.dead <- true
    end
  in
  if not c.dead then go ()

(* --- batch processing -------------------------------------------------- *)

let process_queue t queue =
  let depth = Queue.length queue in
  if depth > t.counters.queue_peak then t.counters.queue_peak <- depth;
  if depth > 0 then begin
    let jobs = List.of_seq (Queue.to_seq queue) in
    Queue.clear queue;
    List.iter
      (fun ((job : client Scheduler.job), outcome) ->
        let c = job.Scheduler.tag in
        let framed =
          c.dead || respond c { P.req_id = job.Scheduler.req_id; result = outcome }
        in
        match outcome with
        | Ok _ when framed -> t.counters.served <- t.counters.served + 1
        | Error P.Deadline_exceeded -> t.counters.expired <- t.counters.expired + 1
        | Error P.Overloaded -> t.counters.rejected <- t.counters.rejected + 1
        | Ok _ | Error (P.Bad_request _ | P.Server_error _) ->
            t.counters.failed <- t.counters.failed + 1)
      (Scheduler.run_batch t.engine t.sched jobs)
  end

let reap t =
  List.iter
    (fun c ->
      if c.dead || (c.eof && pending_out c = 0) then begin
        (try Unix.close c.fd with Unix.Unix_error _ -> ());
        c.dead <- true
      end)
    t.clients;
  t.clients <- List.filter (fun c -> not c.dead) t.clients

(* --- shutdown drain ---------------------------------------------------- *)

let flush_blocking c =
  if not c.dead then begin
    (try Unix.clear_nonblock c.fd with Unix.Unix_error _ -> ());
    let rec go () =
      let n = unsent c in
      if n > 0 then begin
        match Unix.write_substring c.fd c.sending c.sent n with
        | written ->
            c.sent <- c.sent + written;
            go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error (_, _, _) -> c.dead <- true
      end
    in
    go ()
  end

let drain t =
  (* Admit the backlog first: a client whose connect already succeeded
     is in-flight even if this loop never accepted it — closing the
     listen fd now would reset it and drop its pipelined requests. *)
  accept_pass t;
  (* Then stop accepting: the socket disappears from the filesystem,
     so new connections fail fast while the drain runs. *)
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink t.socket_path with Unix.Unix_error _ -> ());
  let queue = Queue.create () in
  (* One final nonblocking read pass: whatever a connected client had
     already written (pipelined requests included) is admitted. *)
  List.iter (fun c -> read_pass t c queue) t.clients;
  process_queue t queue;
  List.iter flush_blocking t.clients;
  List.iter
    (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ())
    t.clients;
  t.clients <- [];
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  try Unix.close t.wake_w with Unix.Unix_error _ -> ()

(* --- the loop ----------------------------------------------------------- *)

let drain_wake t =
  let b = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r b 0 64 with
    | _ -> go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (_, _, _) -> ()
  in
  go ()

let serve_forever t =
  let queue = Queue.create () in
  let rec loop () =
    if Atomic.get t.stop_flag then drain t
    else begin
      let readers =
        t.listen_fd :: t.wake_r
        :: List.filter_map
             (fun c -> if c.eof || c.dead then None else Some c.fd)
             t.clients
      in
      let writers =
        List.filter_map
          (fun c -> if (not c.dead) && pending_out c > 0 then Some c.fd else None)
          t.clients
      in
      match Unix.select readers writers [] (-1.) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | readable, writable, _ ->
          if List.memq t.wake_r readable then drain_wake t;
          if Atomic.get t.stop_flag then drain t
          else begin
            if List.memq t.listen_fd readable then accept_pass t;
            List.iter
              (fun c -> if List.memq c.fd readable then read_pass t c queue)
              t.clients;
            process_queue t queue;
            List.iter
              (fun c ->
                if List.memq c.fd writable || pending_out c > 0 then write_pass c)
              t.clients;
            reap t;
            loop ()
          end
    end
  in
  loop ()
