(* The SplitMix64 state lives in a private 8-byte buffer rather than a
   [mutable state : int64] field: an int64 record field is a pointer to
   a box, so every draw would allocate a fresh one. The unsafe native-
   endian primitives compile to a plain load and store, and a draw that
   returns an [int], [float] or [bool] keeps its 64-bit intermediate in
   a register. The byte order is never observable: the buffer is only
   ever read back by these same primitives. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create ~seed = of_state (Int64.of_int seed)
let copy = Bytes.copy

(* SplitMix64 output function. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* One generator step: advance the state by γ and return its mix. *)
let[@inline] step t =
  let s = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 s;
  mix s

let bits64 t = step t
let split t = of_state (step t)

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
  of_state (mix s)

(* Keep 62 bits: OCaml's native int has 63, so a 62-bit value is always
   non-negative after Int64.to_int. *)
let[@inline] bits62 t = Int64.to_int (Int64.shift_right_logical (step t) 2)

let max62 = (1 lsl 62) - 1

(* Rejection sampling: [r mod bound] alone over-weights the first
   [2^62 mod bound] values, so redraw until [r] falls at or below
   [limit], the end of the largest prefix of [0, 2^62) whose size is a
   multiple of [bound]. *)
let rec draw_below t bound limit =
  let r = bits62 t in
  if r > limit then draw_below t bound limit else r mod bound

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound land (bound - 1) = 0 then bits62 t land (bound - 1)
  else
    (* [2^62 mod bound], computed without overflowing the 63-bit native
       int. *)
    let reject = ((max62 mod bound) + 1) mod bound in
    draw_below t bound (max62 - reject)

(* 53 random bits scaled into [0,1). *)
let[@inline] unit_float t =
  let bits = Int64.to_int (Int64.shift_right_logical (step t) 11) in
  float_of_int bits *. 0x1p-53

let float t x = unit_float t *. x
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
