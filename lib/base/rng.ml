type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }
let copy t = { state = t.state }

(* SplitMix64 output function. *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix t.state

let split t =
  let s = bits64 t in
  { state = s }

(* A keyed stream: state = mix(seed + (key+1)·γ), i.e. the (key+1)-th
   output of a SplitMix64 generator seeded with [seed], used as a fresh
   seed. Two distinct keys give statistically independent streams, and —
   unlike [split], whose result depends on how many draws preceded it —
   the stream is a pure function of (seed, key). The engine keys one
   stream per process by pid, so a process's draw sequence does not
   depend on any other process's draws. *)
let stream ~seed ~key =
  let s =
    Int64.add (Int64.of_int seed)
      (Int64.mul (Int64.of_int (key + 1)) golden_gamma)
  in
  { state = mix s }

(* Keep 62 bits: OCaml's native int has 63, so a 62-bit value is always
   non-negative after Int64.to_int. *)
let bits62 t = Int64.to_int (Int64.shift_right_logical (bits64 t) 2)

let max62 = (1 lsl 62) - 1

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound land (bound - 1) = 0 then bits62 t land (bound - 1)
  else begin
    (* Rejection sampling: [r mod bound] alone over-weights the first
       [2^62 mod bound] values, so redraw until [r] falls inside the
       largest prefix of [0, 2^62) whose size is a multiple of [bound].
       [reject] is [2^62 mod bound], computed without overflowing the
       63-bit native int. *)
    let reject = ((max62 mod bound) + 1) mod bound in
    let limit = max62 - reject in
    let rec draw () =
      let r = bits62 t in
      if r > limit then draw () else r mod bound
    in
    draw ()
  end

(* 53 random bits scaled into [0,1). *)
let unit_float t =
  let bits = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int bits *. 0x1p-53

let float t x = unit_float t *. x
let bool t = Int64.logand (bits64 t) 1L = 1L
let bernoulli t ~p = unit_float t < p

let exponential t ~mean =
  let u = unit_float t in
  (* Avoid log 0. *)
  let u = if u <= 0. then epsilon_float else u in
  -.mean *. log u

let uniform_in t ~lo ~hi = lo +. unit_float t *. (hi -. lo)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))
