(* [| p0; n0; p1; n1; ... |]: (pid, count) pairs in increasing pid order,
   every count >= 1. The walks below are top-level functions with
   explicit arguments, so a call allocates no closure, and their arrays
   are annotated [t], so every comparison compiles to an inline integer
   compare rather than a call to the polymorphic one. *)
type t = int array

let empty = [||]
let is_empty c = Array.length c = 0
let singleton p = [| Pid.to_int p; 1 |]

let rec leq_from (a : t) (b : t) i j =
  i >= Array.length a
  || j < Array.length b
     &&
     let p = a.(i) and q = b.(j) in
     if q < p then leq_from a b i (j + 2)
     else p = q && a.(i + 1) <= b.(j + 1) && leq_from a b (i + 2) (j + 2)

let leq a b = leq_from a b 0 0

let rec mem_from (c : t) p i =
  i < Array.length c && (c.(i) = p || (c.(i) < p && mem_from c p (i + 2)))

(* Twice the number of pids in [a] or [b], counted from [i], [j]. *)
let rec union_size (a : t) (b : t) i j k =
  let na = Array.length a and nb = Array.length b in
  if i >= na then k + nb - j
  else if j >= nb then k + na - i
  else
    let p = a.(i) and q = b.(j) in
    if p < q then union_size a b (i + 2) j (k + 2)
    else if q < p then union_size a b i (j + 2) (k + 2)
    else union_size a b (i + 2) (j + 2) (k + 2)

(* Fill [d] from [k] with the merge of [a] from [i] and [b] from [j],
   maxima of shared pids, [p]'s count raised by one, and [(p, 1)]
   inserted in order when [insert] and neither side has [p]. *)
let rec fill d a b p insert i j k =
  let pa = if i < Array.length a then a.(i) else max_int
  and pb = if j < Array.length b then b.(j) else max_int in
  let q = if pa < pb then pa else pb in
  if insert && p < q then begin
    d.(k) <- p;
    d.(k + 1) <- 1;
    fill d a b p false i j (k + 2)
  end
  else if q < max_int then begin
    let x = if pa = q then a.(i + 1) else 0
    and y = if pb = q then b.(j + 1) else 0 in
    let n = if x >= y then x else y in
    d.(k) <- q;
    d.(k + 1) <- (if q = p then n + 1 else n);
    fill d a b p insert
      (if pa = q then i + 2 else i)
      (if pb = q then j + 2 else j)
      (k + 2)
  end

(* The component-wise maximum of [a] and [b] in one fresh array, with
   pid [p]'s count then raised by one ([p] < 0: no pid). *)
let merge a b p =
  let insert = p >= 0 && not (mem_from a p 0 || mem_from b p 0) in
  let d = Array.make (union_size a b 0 0 0 + if insert then 2 else 0) 0 in
  fill d a b p insert 0 0 0;
  d

let tick c p = merge c empty (Pid.to_int p)
let join a b = if leq b a then a else if leq a b then b else merge a b (-1)
let join_tick a b p = merge a b (Pid.to_int p)

let to_list c =
  List.init (Array.length c / 2) (fun i -> (Pid.of_int c.(2 * i), c.((2 * i) + 1)))
