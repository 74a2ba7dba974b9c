(* Predicates are hash-consed: every value is interned in a global table,
   so structurally equal predicates are physically equal and carry one
   globally unique [id]. The engine compares predicates on every message
   delivery; interning turns those comparisons into pointer equality in
   the common case and lets [implies]/[conflicts] memoise on id pairs.

   Determinism contract: intern ids depend on allocation order and so may
   differ between runs and domains — they must never influence anything
   observable. [equal] is id-based (sound because ids are unique per
   structure), but [compare] remains structural so that any ordering
   derived from it is schedule-independent. *)

type t = { id : int; completes : Pid.Set.t; fails : Pid.Set.t }

module Intern_key = struct
  type t = Pid.Set.t * Pid.Set.t

  let equal (c1, f1) (c2, f2) = Pid.Set.equal c1 c2 && Pid.Set.equal f1 f2

  (* Fold over the elements: the polymorphic hash would walk the balanced
     tree, whose shape is not canonical for a given element set. *)
  let hash (c, f) =
    let step p h = (h * 33) lxor Pid.to_int p in
    let h = Pid.Set.fold step c 0x1505 in
    (Pid.Set.fold step f (h lxor 0x9e3779b9)) land max_int
end

module Intern_table = Hashtbl.Make (Intern_key)

(* Engines running in sibling domains (parallel sweeps) share the table;
   the lock is uncontended in single-domain runs. *)
let intern_lock = Mutex.create ()
let intern_table : t Intern_table.t = Intern_table.create 256
let next_id = ref 0

let intern completes fails =
  let key = (completes, fails) in
  Mutex.lock intern_lock;
  let r =
    match Intern_table.find_opt intern_table key with
    | Some t -> t
    | None ->
      let t = { id = !next_id; completes; fails } in
      incr next_id;
      Intern_table.add intern_table key t;
      t
  in
  Mutex.unlock intern_lock;
  r

let empty = intern Pid.Set.empty Pid.Set.empty

let consistent ~completes ~fails = Pid.Set.disjoint completes fails

let make ~must_complete ~must_fail =
  let completes = Pid.Set.of_list must_complete in
  let fails = Pid.Set.of_list must_fail in
  if not (consistent ~completes ~fails) then
    invalid_arg "Predicate.make: inconsistent";
  intern completes fails

let must_complete t = t.completes
let must_fail t = t.fails
let is_certain t = t == empty
let cardinal t = Pid.Set.cardinal t.completes + Pid.Set.cardinal t.fails

let assume_completes t pid =
  if Pid.Set.mem pid t.fails then
    invalid_arg "Predicate.assume_completes: pid already assumed to fail";
  intern (Pid.Set.add pid t.completes) t.fails

let assume_fails t pid =
  if Pid.Set.mem pid t.completes then
    invalid_arg "Predicate.assume_fails: pid already assumed to complete";
  intern t.completes (Pid.Set.add pid t.fails)

let mem_completes t pid = Pid.Set.mem pid t.completes
let mem_fails t pid = Pid.Set.mem pid t.fails

(* ------------------------------------------------------------------ *)
(* Memoised binary tests. The cache key packs both interned ids into one
   immediate int (31 bits each); predicates with larger ids — never seen
   in practice — skip the cache. Caches are domain-local, so no lock is
   taken on the hot path, and bounded. *)

let memo_limit = 32768
let id_limit = 0x4000_0000

type caches = { implies_c : (int, bool) Hashtbl.t; conflicts_c : (int, bool) Hashtbl.t }

let caches_key =
  Domain.DLS.new_key (fun () ->
      { implies_c = Hashtbl.create 1024; conflicts_c = Hashtbl.create 1024 })

let memo cache k compute =
  match Hashtbl.find cache k with
  | v -> v
  | exception Not_found ->
    if Hashtbl.length cache >= memo_limit then Hashtbl.reset cache;
    let v = compute () in
    Hashtbl.add cache k v;
    v

let implies r s =
  (* Physical fast path: every predicate implies itself, and the certain
     predicate is implied by everything. *)
  if r == s || s == empty then true
  else if r.id < id_limit && s.id < id_limit then
    memo (Domain.DLS.get caches_key).implies_c
      ((r.id lsl 31) lor s.id)
      (fun () ->
        Pid.Set.subset s.completes r.completes && Pid.Set.subset s.fails r.fails)
  else Pid.Set.subset s.completes r.completes && Pid.Set.subset s.fails r.fails

let conflicts r s =
  (* A predicate is internally consistent, so it cannot conflict with
     itself; the certain predicate conflicts with nothing. *)
  if r == s || r == empty || s == empty then false
  else if r.id < id_limit && s.id < id_limit then
    memo (Domain.DLS.get caches_key).conflicts_c
      ((r.id lsl 31) lor s.id)
      (fun () ->
        (not (Pid.Set.disjoint r.completes s.fails))
        || not (Pid.Set.disjoint r.fails s.completes))
  else
    (not (Pid.Set.disjoint r.completes s.fails))
    || not (Pid.Set.disjoint r.fails s.completes)

let conjoin r s =
  if conflicts r s then invalid_arg "Predicate.conjoin: conflicting predicates";
  if r == s || s == empty then r
  else if r == empty then s
  else intern (Pid.Set.union r.completes s.completes) (Pid.Set.union r.fails s.fails)

(* Interning makes structural equality coincide with id equality. *)
let equal a b = a == b || a.id = b.id

let compare a b =
  let c = Pid.Set.compare a.completes b.completes in
  if c <> 0 then c else Pid.Set.compare a.fails b.fails

type fate = Completed | Failed

type resolution = Unchanged | Simplified of t | Falsified

let resolve t ~pid ~fate =
  match fate with
  | Completed ->
    if Pid.Set.mem pid t.fails then Falsified
    else if Pid.Set.mem pid t.completes then
      Simplified (intern (Pid.Set.remove pid t.completes) t.fails)
    else Unchanged
  | Failed ->
    if Pid.Set.mem pid t.completes then Falsified
    else if Pid.Set.mem pid t.fails then
      Simplified (intern t.completes (Pid.Set.remove pid t.fails))
    else Unchanged

let resolve_all t ~fate =
  let contradicted ~assumed p =
    match (fate p, assumed) with
    | Some Failed, Completed | Some Completed, Failed -> true
    | _ -> false
  in
  let undecided p = match fate p with None -> true | Some _ -> false in
  if
    Pid.Set.exists (contradicted ~assumed:Completed) t.completes
    || Pid.Set.exists (contradicted ~assumed:Failed) t.fails
  then Falsified
  else
    (* [Set.filter] returns its argument when it keeps every element, so
       an untouched predicate is recognised without interning. *)
    let completes = Pid.Set.filter undecided t.completes in
    let fails = Pid.Set.filter undecided t.fails in
    if completes == t.completes && fails == t.fails then Unchanged
    else Simplified (intern completes fails)

let pp ppf t =
  let items =
    List.map (fun p -> "+" ^ Pid.to_string p) (Pid.Set.elements t.completes)
    @ List.map (fun p -> "-" ^ Pid.to_string p) (Pid.Set.elements t.fails)
  in
  Format.fprintf ppf "{%s}" (String.concat " " items)

let to_string t = Format.asprintf "%a" pp t
