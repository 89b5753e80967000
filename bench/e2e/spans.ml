(* In-memory span recorder for the traced replay.

   A span is a named interval on the monotonic clock with the span
   that was open when it began as its parent, and optionally the
   daemon request it served. Spans stay in memory until the replay
   ends; [chrome] then renders them as Chrome trace-event JSON, which
   Perfetto (ui.perfetto.dev) and chrome://tracing open directly. *)

type span = {
  id : int;
  name : string;
  parent : int option;
  req_id : int option;
  start_ns : int64;
  mutable stop_ns : int64;
}

type t = {
  origin : int64;
  mutable finished : span list;  (** newest first *)
  mutable open_ : span list;  (** innermost first *)
  mutable next_id : int;
}

let create () =
  { origin = Common.Clock.monotonic_ns (); finished = []; open_ = []; next_id = 0 }

let enter t ?req_id name =
  let parent = match t.open_ with s :: _ -> Some s.id | [] -> None in
  let s =
    {
      id = t.next_id;
      name;
      parent;
      req_id;
      start_ns = Common.Clock.monotonic_ns ();
      stop_ns = 0L;
    }
  in
  t.next_id <- t.next_id + 1;
  t.open_ <- s :: t.open_;
  s

(* [leave t s] closes [s], which must be the innermost open span. *)
let leave t s =
  match t.open_ with
  | top :: rest when top.id = s.id ->
      s.stop_ns <- Common.Clock.monotonic_ns ();
      t.open_ <- rest;
      t.finished <- s :: t.finished
  | _ -> invalid_arg (Printf.sprintf "Spans.leave: %s is not the innermost span" s.name)

let with_ t ?req_id name f =
  let s = enter t ?req_id name in
  Fun.protect ~finally:(fun () -> leave t s) f

(* Finished spans in the order they began. *)
let spans t = List.sort (fun a b -> Int.compare a.id b.id) t.finished

let duration_ns s = Int64.sub s.stop_ns s.start_ns

let ms s = Int64.to_float (duration_ns s) /. 1e6

(* Durations in milliseconds of every finished span called [name], in
   the order they began; with [~within], only those that lie inside a
   span called [within]. *)
let durations_ms ?within t name =
  let all = spans t in
  let inside =
    match within with
    | None -> fun _ -> true
    | Some outer ->
        let outers = List.filter (fun o -> o.name = outer) all in
        fun s ->
          List.exists
            (fun o ->
              Int64.compare o.start_ns s.start_ns <= 0
              && Int64.compare s.stop_ns o.stop_ns <= 0)
            outers
  in
  List.filter_map (fun s -> if s.name = name && inside s then Some (ms s) else None) all

let total_ms ?within t name = List.fold_left ( +. ) 0. (durations_ms ?within t name)

(* [self_ms t] is, per span name, (count, total ms, self ms), where a
   span's self time is its duration minus the time its direct children
   cover. Children of one parent never overlap: the replay is a single
   thread. *)
let self_ms t =
  let child_ns = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p ->
          let prev = Option.value (Hashtbl.find_opt child_ns p) ~default:0L in
          Hashtbl.replace child_ns p (Int64.add prev (duration_ns s))
      | None -> ())
    t.finished;
  let acc = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun s ->
      let own =
        Int64.sub (duration_ns s)
          (Option.value (Hashtbl.find_opt child_ns s.id) ~default:0L)
      in
      let count, total, self =
        match Hashtbl.find_opt acc s.name with
        | Some v -> v
        | None ->
            order := s.name :: !order;
            (0, 0L, 0L)
      in
      Hashtbl.replace acc s.name
        (count + 1, Int64.add total (duration_ns s), Int64.add self own))
    (spans t);
  List.rev_map
    (fun name ->
      let count, total, self = Hashtbl.find acc name in
      (name, count, Int64.to_float total /. 1e6, Int64.to_float self /. 1e6))
    !order

let chrome t =
  let module J = Bench.Json in
  let us ns = Int64.to_float (Int64.sub ns t.origin) /. 1e3 in
  let event s =
    let args =
      [ ("id", J.Num (float_of_int s.id)) ]
      @ (match s.parent with
        | Some p -> [ ("parent", J.Num (float_of_int p)) ]
        | None -> [])
      @ match s.req_id with Some r -> [ ("req_id", J.Num (float_of_int r)) ] | None -> []
    in
    J.Obj
      [
        ("name", J.Str s.name);
        ("cat", J.Str (List.hd (String.split_on_char '.' s.name)));
        ("ph", J.Str "X");
        ("ts", J.Num (us s.start_ns));
        ("dur", J.Num (Int64.to_float (duration_ns s) /. 1e3));
        ("pid", J.Num 1.);
        ("tid", J.Num 1.);
        ("args", J.Obj args);
      ]
  in
  J.Obj
    [
      ("traceEvents", J.List (List.map event (spans t)));
      ("displayTimeUnit", J.Str "ms");
    ]
