let cdf ~tenants ~s =
  let w = Array.init tenants (fun k -> (float_of_int (k + 1)) ** -.s) in
  let total = Array.fold_left ( +. ) 0. w in
  let cdf = Array.make tenants 0. in
  let acc = ref 0. in
  for k = 0 to tenants - 1 do
    acc := !acc +. (w.(k) /. total);
    cdf.(k) <- !acc
  done;
  cdf.(tenants - 1) <- 1.;
  cdf

let search (cdf : float array) (u : float) =
  let n = Array.length cdf in
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if u <= cdf.(mid) then hi := mid else lo := mid + 1
  done;
  !lo

type t = { cdf : float array; guide : int array (* [||]: no guide *) }

let buckets = 256

(* For [u] below 1, [u <= cdf.(k)] is [u <= min cdf.(k) 1], so the
   predicate is monotone in [k] exactly when the clamped CDF is
   nondecreasing. Rounding can leave an entry before the last a hair
   above 1; that is fine. A NaN entry fails the comparison. *)
let monotone cdf =
  let ok = ref true in
  for k = 0 to Array.length cdf - 2 do
    if not (Float.min cdf.(k) 1. <= Float.min cdf.(k + 1) 1.) then ok := false
  done;
  !ok

let table ~tenants ~s =
  let cdf = cdf ~tenants ~s in
  let guide =
    if monotone cdf then
      Array.init buckets (fun b -> search cdf (float_of_int b /. float_of_int buckets))
    else [||]
  in
  { cdf; guide }

(* [u *. 256.] is exact, so bucket [b] starts at or below [u] and its
   entry is at or below the answer; the scan stops at the answer. *)
let pick t u =
  let guide = t.guide in
  if Array.length guide = 0 then search t.cdf u
  else begin
    let cdf = t.cdf in
    let last = Array.length cdf - 1 in
    let k = ref guide.(int_of_float (u *. 256.)) in
    while !k < last && u > Array.unsafe_get cdf !k do
      incr k
    done;
    !k
  end
