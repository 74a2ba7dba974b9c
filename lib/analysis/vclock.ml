(* [cells] holds [len / 2] (pid, count) pairs [| p0; n0; p1; n1; ... |]
   in increasing pid order, every count >= 1; the slots from [len] on are
   spare capacity, so a tick or a join that adds no more pids than the
   array has room for writes in place. A snapshot is the same layout in
   an exact-size array that nothing writes after it is taken.

   The walks below are top-level functions with explicit arguments, so a
   call allocates no closure, and their arrays are annotated [int array],
   so every comparison compiles to an inline integer compare rather than
   a call to the polymorphic one. *)
type t = { mutable cells : int array; mutable len : int }

type snapshot = int array

let create () = { cells = [||]; len = 0 }
let no_snapshot = [||]

let rec get_from (c : int array) len p i =
  if i >= len then 0
  else
    let q = c.(i) in
    if q = p then c.(i + 1) else if q > p then 0 else get_from c len p (i + 2)

let get c p = get_from c.cells c.len (Pid.to_int p) 0

(* Twice the number of pids in the first [la] ints of [a] or the first
   [lb] of [b], counted from [i], [j]. *)
let rec union_size (a : int array) la (b : int array) lb i j k =
  if i >= la then k + lb - j
  else if j >= lb then k + la - i
  else
    let p = a.(i) and q = b.(j) in
    if p < q then union_size a la b lb (i + 2) j (k + 2)
    else if q < p then union_size a la b lb i (j + 2) (k + 2)
    else union_size a la b lb (i + 2) (j + 2) (k + 2)

let rec mem_from (c : int array) len p i =
  i < len && (c.(i) = p || (c.(i) < p && mem_from c len p (i + 2)))

(* Merge from the back: the pairs of [d] up to [i] and of [b] up to [j]
   (the indices of their last unread pairs) go to [d] at [k] and below,
   maxima of shared pids, [p]'s count raised by one, and [(p, 1)]
   inserted in order when [insert]. The write index never falls below
   the read index of [d], and a pair is read before it is written over,
   so the merge runs in place. *)
let rec fill_back (d : int array) (b : int array) p insert i j k =
  if k >= 0 then begin
    let pa = if i >= 0 then d.(i) else min_int
    and pb = if j >= 0 then b.(j) else min_int in
    let q = if pa > pb then pa else pb in
    if insert && p > q then begin
      d.(k) <- p;
      d.(k + 1) <- 1;
      fill_back d b p false i j (k - 2)
    end
    else begin
      let x = if pa = q then d.(i + 1) else 0
      and y = if pb = q then b.(j + 1) else 0 in
      let n = if x >= y then x else y in
      d.(k) <- q;
      d.(k + 1) <- (if q = p then n + 1 else n);
      fill_back d b p insert
        (if pa = q then i - 2 else i)
        (if pb = q then j - 2 else j)
        (k - 2)
    end
  end

(* [c] := the component-wise maximum of [c] and the first [lb] ints of
   [b], then [p]'s count raised by one. Allocates only when the result
   outgrows [c]'s array. *)
let join_into c (b : int array) lb p =
  let la = c.len in
  let insert = not (mem_from c.cells la p 0 || mem_from b lb p 0) in
  let n = union_size c.cells la b lb 0 0 0 + if insert then 2 else 0 in
  let cap = Array.length c.cells in
  if n > cap then begin
    let cells = Array.make (Int.max n (2 * cap)) 0 in
    Array.blit c.cells 0 cells 0 la;
    c.cells <- cells
  end;
  fill_back c.cells b p insert (la - 2) (lb - 2) (n - 2);
  c.len <- n

let tick c p = join_into c no_snapshot 0 (Pid.to_int p)
let join_tick c d p = join_into c d.cells d.len (Pid.to_int p)
let join_snapshot_tick c s p = join_into c s (Array.length s) (Pid.to_int p)

let clear c = c.len <- 0

let snapshot c = Array.sub c.cells 0 c.len

let pairs (c : int array) len =
  List.init (len / 2) (fun i -> (Pid.of_int c.(2 * i), c.((2 * i) + 1)))

let to_list c = pairs c.cells c.len
let snapshot_to_list s = pairs s (Array.length s)
