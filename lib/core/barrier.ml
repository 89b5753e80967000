open Games

(* Union-find with component potential-minimum tracking. *)
module Uf = struct
  type t = { parent : int array; rank : int array; min_phi : float array }

  (* One element per entry of [value], each its own component with
     minimum [value.(i)]; [value] itself is not mutated. *)
  let create value =
    let n = Array.length value in
    {
      parent = Array.init n Fun.id;
      rank = Array.make n 0;
      min_phi = Array.copy value;
    }

  let rec find t i =
    if t.parent.(i) = i then i
    else begin
      let root = find t t.parent.(i) in
      t.parent.(i) <- root;
      root
    end

  (* Returns the merged root's minimum and the two pre-merge minima, or
     [None] if the two elements were already connected. *)
  let union t i j =
    let ri = find t i and rj = find t j in
    if ri = rj then None
    else begin
      let mi = t.min_phi.(ri) and mj = t.min_phi.(rj) in
      let big, small =
        if t.rank.(ri) >= t.rank.(rj) then (ri, rj) else (rj, ri)
      in
      t.parent.(small) <- big;
      if t.rank.(big) = t.rank.(small) then t.rank.(big) <- t.rank.(big) + 1;
      t.min_phi.(big) <- Float.min mi mj;
      Some (mi, mj)
    end
end

let zeta space phi =
  let size = Strategy_space.size space in
  let order = Array.init size Fun.id in
  let value = Array.init size phi in
  Array.sort
    (fun a b ->
      let c = compare value.(a) value.(b) in
      if c <> 0 then c else compare a b)
    order;
  let rank_of = Array.make size 0 in
  Array.iteri (fun r v -> rank_of.(v) <- r) order;
  let uf = Uf.create value in
  let best = ref 0. in
  Array.iteri
    (fun r v ->
      List.iter
        (fun u ->
          if rank_of.(u) < r then
            match Uf.union uf u v with
            | None -> ()
            | Some (m1, m2) ->
                let candidate = value.(v) -. Float.max m1 m2 in
                if candidate > !best then best := candidate)
        (Strategy_space.neighbors space v))
    order;
  !best

module Pq = Set.Make (struct
  type t = float * int

  let compare = compare
end)

let widest_path_from space phi src =
  let size = Strategy_space.size space in
  if src < 0 || src >= size then invalid_arg "Barrier.widest_path_from: bad source";
  let w = Array.make size infinity in
  let settled = Array.make size false in
  w.(src) <- phi src;
  let queue = ref (Pq.singleton (w.(src), src)) in
  while not (Pq.is_empty !queue) do
    let ((_, u) as entry) = Pq.min_elt !queue in
    queue := Pq.remove entry !queue;
    if not settled.(u) then begin
      settled.(u) <- true;
      List.iter
        (fun v ->
          if not settled.(v) then begin
            let candidate = Float.max w.(u) (phi v) in
            if candidate < w.(v) then begin
              queue := Pq.add (candidate, v) !queue;
              w.(v) <- candidate
            end
          end)
        (Strategy_space.neighbors space u)
    end
  done;
  w

let zeta_brute space phi =
  let size = Strategy_space.size space in
  let best = ref 0. in
  for x = 0 to size - 1 do
    let w = widest_path_from space phi x in
    for y = 0 to size - 1 do
      if y <> x then begin
        let candidate = w.(y) -. Float.max (phi x) (phi y) in
        if candidate > !best then best := candidate
      end
    done
  done;
  !best

let zeta_of_weight_potential ~players phi_of_weight =
  if players < 1 then invalid_arg "Barrier.zeta_of_weight_potential";
  let n = players in
  (* Merge sweep on the weight path {0..n}. *)
  let order = Array.init (n + 1) Fun.id in
  let value = Array.init (n + 1) phi_of_weight in
  Array.sort
    (fun a b ->
      let c = compare value.(a) value.(b) in
      if c <> 0 then c else compare a b)
    order;
  let rank_of = Array.make (n + 1) 0 in
  Array.iteri (fun r v -> rank_of.(v) <- r) order;
  let uf = Uf.create value in
  let best = ref 0. in
  Array.iteri
    (fun r k ->
      List.iter
        (fun k' ->
          if k' >= 0 && k' <= n && rank_of.(k') < r then
            match Uf.union uf k' k with
            | None -> ()
            | Some (m1, m2) ->
                let candidate = value.(k) -. Float.max m1 m2 in
                if candidate > !best then best := candidate)
        [ k - 1; k + 1 ])
    order;
  (* Same-shell pairs: two weight-k profiles (0 < k < n) are never
     adjacent on the cube, so a strict local-minimum shell forces a
     climb of min(φ(k-1), φ(k+1)) - φ(k) between its own profiles. *)
  for k = 1 to n - 1 do
    let here = phi_of_weight k in
    let lo = Float.min (phi_of_weight (k - 1)) (phi_of_weight (k + 1)) in
    if lo > here then begin
      let candidate = lo -. here in
      if candidate > !best then best := candidate
    end
  done;
  !best

let zeta_clique ~n ~delta0 ~delta1 =
  let phi k = Graphical.clique_potential ~n ~delta0 ~delta1 k in
  let kstar = Graphical.clique_kstar ~n ~delta0 ~delta1 in
  phi kstar -. Float.max (phi 0) (phi n)
