type t = {
  counts : int array;
  strides : int array;  (** strides.(i) = Π_{j<i} counts.(j) *)
  size : int;
}

type profile = int array

let create counts =
  let n = Array.length counts in
  if n = 0 then invalid_arg "Strategy_space.create: no players";
  Array.iter
    (fun c -> if c < 1 then invalid_arg "Strategy_space.create: empty strategy set")
    counts;
  let strides = Array.make n 1 in
  let size = ref 1 in
  for i = 0 to n - 1 do
    strides.(i) <- !size;
    if !size > max_int / counts.(i) then
      invalid_arg "Strategy_space.create: profile space too large";
    size := !size * counts.(i)
  done;
  { counts = Array.copy counts; strides; size = !size }

let uniform ~players ~strategies = create (Array.make players strategies)

let num_players s = Array.length s.counts
let num_strategies s i = s.counts.(i)
let max_strategies s = Array.fold_left Int.max 1 s.counts
let size s = s.size

let encode s p =
  if Array.length p <> Array.length s.counts then
    invalid_arg "Strategy_space.encode: wrong profile length";
  let idx = ref 0 in
  for i = 0 to Array.length p - 1 do
    if p.(i) < 0 || p.(i) >= s.counts.(i) then
      invalid_arg "Strategy_space.encode: strategy out of range";
    idx := !idx + (p.(i) * s.strides.(i))
  done;
  !idx

let decode s idx =
  if idx < 0 || idx >= s.size then invalid_arg "Strategy_space.decode: out of range";
  Array.init (Array.length s.counts) (fun i -> idx / s.strides.(i) mod s.counts.(i))

let player_strategy s idx i = idx / s.strides.(i) mod s.counts.(i)

let replace s idx i a =
  if a < 0 || a >= s.counts.(i) then
    invalid_arg "Strategy_space.replace: strategy out of range";
  let current = player_strategy s idx i in
  idx + ((a - current) * s.strides.(i))

(* Both maps go through decode/encode, so they follow the encoding
   wherever it goes; they are built once per chain, not per step. *)
let map_profiles s f = Array.init s.size (fun idx -> encode s (f (decode s idx)))

let permute_players s rho =
  let n = Array.length s.counts in
  let seen = Array.make n false in
  let permutes =
    Array.length rho = n
    && Array.for_all
         (fun j ->
           j >= 0 && j < n && (not seen.(j))
           &&
           (seen.(j) <- true;
            true))
         rho
  in
  if permutes && Array.for_all2 (fun c j -> c = s.counts.(j)) s.counts rho then
    Some
      (map_profiles s (fun x ->
           let y = Array.make n 0 in
           Array.iteri (fun i a -> y.(rho.(i)) <- a) x;
           y))
  else None

let swap_strategies s =
  if Array.for_all (( = ) 2) s.counts then
    Some (map_profiles s (Array.map (fun a -> 1 - a)))
  else None

let iter s f =
  for idx = 0 to s.size - 1 do
    f idx
  done

let iter_profiles s f =
  let n = Array.length s.counts in
  let p = Array.make n 0 in
  for idx = 0 to s.size - 1 do
    f idx p;
    (* Increment the mixed-radix counter. *)
    let i = ref 0 in
    let carrying = ref true in
    while !carrying && !i < n do
      p.(!i) <- p.(!i) + 1;
      if p.(!i) = s.counts.(!i) then begin
        p.(!i) <- 0;
        incr i
      end
      else carrying := false
    done
  done

let neighbors s idx =
  let n = Array.length s.counts in
  let acc = ref [] in
  for i = n - 1 downto 0 do
    let current = player_strategy s idx i in
    for a = s.counts.(i) - 1 downto 0 do
      if a <> current then acc := replace s idx i a :: !acc
    done
  done;
  !acc

let hamming_distance s a b =
  let n = Array.length s.counts in
  let d = ref 0 in
  for i = 0 to n - 1 do
    if player_strategy s a i <> player_strategy s b i then incr d
  done;
  !d

let weight s idx =
  let n = Array.length s.counts in
  let w = ref 0 in
  for i = 0 to n - 1 do
    if player_strategy s idx i <> 0 then incr w
  done;
  !w

let pp_profile ppf p =
  Format.fprintf ppf "@[<h>(%a)@]"
    (Format.pp_print_array
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       Format.pp_print_int)
    p
