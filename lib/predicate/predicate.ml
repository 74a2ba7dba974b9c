(* A predicate is two sorted, duplicate-free arrays of raw pids, so every
   operation is a binary search or a merge walk: [implies] and
   [conflicts], which the engine runs on every delivery, allocate
   nothing, and no state is shared between domains. Every constructor
   returns [empty] for the certain predicate, so the fast paths below
   test it physically. The loops are top-level functions taking every
   variable as an argument: a local recursive function would allocate a
   closure per call. Their arrays are annotated [int array], so each
   comparison is an inline integer compare, not a call to the
   polymorphic one. *)

type t = { completes : int array; fails : int array }

let empty = { completes = [||]; fails = [||] }

(* Pid -1 is never issued, and no world has it both complete and fail. *)
let falsified = { completes = [| -1 |]; fails = [| -1 |] }

let mk completes fails =
  if Array.length completes = 0 && Array.length fails = 0 then empty
  else { completes; fails }

(* Index of [x] in [a.(lo..hi-1)], or [-1 - i] for its insertion point [i]. *)
let rec search (a : int array) x lo hi =
  if lo >= hi then -1 - lo
  else
    let mid = (lo + hi) lsr 1 in
    let y = Array.unsafe_get a mid in
    if y = x then mid else if y < x then search a x (mid + 1) hi else search a x lo mid

let mem a x = search a x 0 (Array.length a) >= 0

(* [a] with [x] added; [x] must be absent. *)
let insert (a : int array) x =
  let i = -1 - search a x 0 (Array.length a) and n = Array.length a in
  let b = Array.make (n + 1) x in
  Array.blit a 0 b 0 i;
  Array.blit a i b (i + 1) (n - i);
  b

(* Every element of [s.(i..)] is in [r.(j..)]. *)
let rec subset (s : int array) (r : int array) i j =
  let ns = Array.length s and nr = Array.length r in
  i = ns
  || nr - j >= ns - i
     &&
     let x = Array.unsafe_get s i and y = Array.unsafe_get r j in
     if x = y then subset s r (i + 1) (j + 1) else x > y && subset s r i (j + 1)

let rec intersects (a : int array) (b : int array) i j =
  i < Array.length a
  && j < Array.length b
  &&
  let x = Array.unsafe_get a i and y = Array.unsafe_get b j in
  x = y || if x < y then intersects a b (i + 1) j else intersects a b i (j + 1)

(* Merge [a.(i..)] and [b.(j..)] into [c.(k..)], dropping duplicates;
   returns the merged length. *)
let rec merge (a : int array) (b : int array) c i j k =
  let na = Array.length a and nb = Array.length b in
  if i = na then (Array.blit b j c k (nb - j); k + nb - j)
  else if j = nb then (Array.blit a i c k (na - i); k + na - i)
  else
    let x = Array.unsafe_get a i and y = Array.unsafe_get b j in
    Array.unsafe_set c k (if x <= y then x else y);
    merge a b c (if x <= y then i + 1 else i) (if y <= x then j + 1 else j) (k + 1)

(* Returns an argument when it already contains the other. *)
let union (a : int array) (b : int array) =
  if subset b a 0 0 then a
  else if subset a b 0 0 then b
  else
    let c = Array.make (Array.length a + Array.length b) 0 in
    let n = merge a b c 0 0 0 in
    if n = Array.length c then c else Array.sub c 0 n

let of_list l = Array.of_list (List.sort_uniq Int.compare (List.map Pid.to_int l))
let to_set a = Array.fold_left (fun s p -> Pid.Set.add (Pid.of_int p) s) Pid.Set.empty a

let make ~must_complete ~must_fail =
  let completes = of_list must_complete and fails = of_list must_fail in
  if intersects completes fails 0 0 then invalid_arg "Predicate.make: inconsistent";
  mk completes fails

let must_complete t = to_set t.completes
let must_fail t = to_set t.fails
let is_certain t = Array.length t.completes = 0 && Array.length t.fails = 0
let cardinal t = Array.length t.completes + Array.length t.fails
let mem_completes t pid = mem t.completes (Pid.to_int pid)
let mem_fails t pid = mem t.fails (Pid.to_int pid)

let assume_completes t pid =
  let x = Pid.to_int pid in
  if mem t.fails x then
    invalid_arg "Predicate.assume_completes: pid already assumed to fail";
  if mem t.completes x then t else { t with completes = insert t.completes x }

let assume_fails t pid =
  let x = Pid.to_int pid in
  if mem t.completes x then
    invalid_arg "Predicate.assume_fails: pid already assumed to complete";
  if mem t.fails x then t else { t with fails = insert t.fails x }

(* How many pids of [rivals.(i..)] (strictly ascending, [self] skipped)
   [fails] lacks, plus [n]; raises as [assume_fails] would on one that
   [completes] holds. *)
let rec count_rivals completes fails rivals ~self i n =
  if i = Array.length rivals then n
  else
    let x = Pid.to_int (Array.unsafe_get rivals i) in
    if i > 0 && x <= Pid.to_int (Array.unsafe_get rivals (i - 1)) then
      invalid_arg "Predicate.assume_alternative: rivals not strictly ascending";
    if x = self then count_rivals completes fails rivals ~self (i + 1) n
    else if mem completes x then
      invalid_arg "Predicate.assume_fails: pid already assumed to complete"
    else count_rivals completes fails rivals ~self (i + 1) (if mem fails x then n else n + 1)

(* [merge] of [a.(i..)] and the pids of [rivals.(j..)] into [c.(k..)],
   [self] skipped. *)
let rec merge_rivals a rivals c ~self i j k =
  let na = Array.length a and nb = Array.length rivals in
  if j < nb && Pid.to_int (Array.unsafe_get rivals j) = self then
    merge_rivals a rivals c ~self i (j + 1) k
  else if j = nb then Array.blit a i c k (na - i)
  else if i = na then begin
    Array.unsafe_set c k (Pid.to_int (Array.unsafe_get rivals j));
    merge_rivals a rivals c ~self i (j + 1) (k + 1)
  end
  else
    let x = Array.unsafe_get a i and y = Pid.to_int (Array.unsafe_get rivals j) in
    Array.unsafe_set c k (if x <= y then x else y);
    merge_rivals a rivals c ~self
      (if x <= y then i + 1 else i) (if y <= x then j + 1 else j) (k + 1)

let assume_alternative t ~self ~rivals =
  let x = Pid.to_int self in
  if mem t.fails x then
    invalid_arg "Predicate.assume_completes: pid already assumed to fail";
  let added = count_rivals t.completes t.fails rivals ~self:x 0 0 in
  let completes = if mem t.completes x then t.completes else insert t.completes x in
  if added = 0 then if completes == t.completes then t else { t with completes }
  else begin
    let fails = Array.make (Array.length t.fails + added) 0 in
    merge_rivals t.fails rivals fails ~self:x 0 0 0;
    { completes; fails }
  end

let implies r s =
  r == s || s == empty
  || (subset s.completes r.completes 0 0 && subset s.fails r.fails 0 0)

let conflicts r s =
  (* A predicate is internally consistent, so it cannot conflict with
     itself; the certain predicate conflicts with nothing. *)
  not (r == s || r == empty || s == empty)
  && (intersects r.completes s.fails 0 0 || intersects r.fails s.completes 0 0)

let conjoin r s =
  if conflicts r s then invalid_arg "Predicate.conjoin: conflicting predicates";
  if implies r s then r
  else if implies s r then s
  else { completes = union r.completes s.completes; fails = union r.fails s.fails }

let rec equal_from (a : int array) (b : int array) i =
  i = Array.length a || (Array.unsafe_get a i = Array.unsafe_get b i && equal_from a b (i + 1))

let equal_ints a b = Array.length a = Array.length b && equal_from a b 0

let equal a b = a == b || (equal_ints a.completes b.completes && equal_ints a.fails b.fails)

type receipt =
  | Accept
  | Adopt of t
  | Split of { accept : t; reject : t }
  | Ignore of string
  | Defer

let receipt r ~sender ~stamp s ~cloneable =
  if s == falsified then Ignore "dead world"
  else if mem_fails stamp sender then Ignore "conflict"
  else if implies r s then Accept
  else if conflicts r s || mem_fails r sender then Ignore "conflict"
  else if mem_completes r sender then Adopt (conjoin r s)
  else if cloneable then
    Split { accept = assume_completes (conjoin r s) sender; reject = assume_fails r sender }
  else Defer

type fate = Completed | Failed

type resolution = Unchanged | Simplified of t | Falsified

(* Number of pids of [a.(i..)] that [fate] has decided, plus [n]; [-1] as
   soon as one was decided against [assumed]. *)
let rec count_decided fate a ~assumed i n =
  if i = Array.length a then n
  else
    match fate (Pid.of_int (Array.unsafe_get a i)) with
    | None -> count_decided fate a ~assumed (i + 1) n
    | Some f -> if f == assumed then count_decided fate a ~assumed (i + 1) (n + 1) else -1

(* Copy the undecided pids of [a.(i..)] into [b.(k..)]. *)
let rec keep_undecided fate a b i k =
  if i < Array.length a then
    match fate (Pid.of_int (Array.unsafe_get a i)) with
    | None ->
      Array.unsafe_set b k (Array.unsafe_get a i);
      keep_undecided fate a b (i + 1) (k + 1)
    | Some _ -> keep_undecided fate a b (i + 1) k

let undecided fate a ~decided =
  if decided = 0 then a
  else begin
    let b = Array.make (Array.length a - decided) 0 in
    keep_undecided fate a b 0 0;
    b
  end

let resolve_all t ~fate =
  let dc = count_decided fate t.completes ~assumed:Completed 0 0 in
  let df = if dc < 0 then -1 else count_decided fate t.fails ~assumed:Failed 0 0 in
  if dc < 0 || df < 0 then Falsified
  else if dc = 0 && df = 0 then Unchanged
  else
    Simplified
      (mk (undecided fate t.completes ~decided:dc) (undecided fate t.fails ~decided:df))

(* [a] without its element at index [i]. *)
let remove_at a i =
  let n = Array.length a in
  let b = Array.make (n - 1) 0 in
  Array.blit a 0 b 0 i;
  Array.blit a (i + 1) b i (n - 1 - i);
  b

(* One pid, decided by two binary searches: no fate function to build. *)
let resolve t ~pid ~fate =
  let x = Pid.to_int pid in
  let i = search t.completes x 0 (Array.length t.completes) in
  if i >= 0 then
    match fate with
    | Completed -> Simplified (mk (remove_at t.completes i) t.fails)
    | Failed -> Falsified
  else
    let i = search t.fails x 0 (Array.length t.fails) in
    if i < 0 then Unchanged
    else
      match fate with
      | Failed -> Simplified (mk t.completes (remove_at t.fails i))
      | Completed -> Falsified

let pp ppf t =
  let items sign a = List.map (fun p -> sign ^ Pid.to_string (Pid.of_int p)) (Array.to_list a) in
  Format.fprintf ppf "{%s}" (String.concat " " (items "+" t.completes @ items "-" t.fails))

let to_string t = Format.asprintf "%a" pp t
