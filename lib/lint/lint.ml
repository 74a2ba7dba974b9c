type verdict =
  | Independent of { proof : string }
  | Conflicting of { witness : string }
  | Unknown of { reason : string }

type finding = {
  target : string;
  kind : string;
  branches : int;
  verdict : verdict;
}

(* ------------------------------------------------------------------ *)
(* OR-branch mutual exclusivity.

   A branch is one clause whose (renamed-apart) head unifies with the
   goal — the same decomposition Solve.branches performs. The proof
   obligations are purely syntactic and err on the side of Unknown:

   - E1 goal discrimination: at most one clause head unifies with the
     goal as instantiated, so there is at most one branch at all.
   - Static failure: a clause whose body has a top-level conjunct [fail]
     or [false] can never succeed, whatever the bindings; if at most one
     branch survives this filter, the block is exclusive.
   - Complementary guard prefixes: each branch's body starts with a
     prefix of non-binding tests (comparisons, [==]/[\==], [\=]). If two
     branches carry complementary tests over syntactically equal,
     goal-derived arguments ([X < Y] against [Y =< X], [A =:= B] against
     [A =\= B], ...), at most one of the two can succeed: on ground
     arguments exactly one test holds, and a non-ground arithmetic
     comparison errors identically in both branches.

   Guard arguments are compared across branches through a {e path
   renaming}: after head unification, every variable reachable from the
   goal is renamed to a canonical index allocated per position in the
   resolved goal (functors along the way included in the position). Two
   branches' variables at the same goal position denote the same
   concrete value on any goal instance both heads unify with, so the
   renamed tests compare meaningfully whichever direction the unifier
   happened to bind (goal var to clause var or vice versa). A test
   mentioning a variable not reachable from the goal is clause-local
   and is conservatively dropped from the prefix.

   Soundness of the guard rule rests on the prefix being binding-free:
   no conjunct before (or among) the tests can rebind a variable the
   tests mention, so both branches evaluate their tests over the same
   goal bindings. *)

type branch = {
  br_index : int;  (* clause position in database order *)
  br_fact : bool;  (* body is None or the atom [true] *)
  br_static_fail : bool;  (* a top-level conjunct is fail/false *)
  br_tests : Term.t list;  (* canonicalised binding-free test prefix *)
}

let rec conjuncts t =
  match t with
  | Term.Compound (",", [| a; b |]) -> conjuncts a @ conjuncts b
  | t -> [ t ]

(* Canonical orientation: [a > b] becomes [b < a], [a >= b] becomes
   [b =< a], so complement detection only has to know [<] and [=<]. *)
let canonical t =
  match t with
  | Term.Compound (">", [| a; b |]) -> Term.Compound ("<", [| b; a |])
  | Term.Compound (">=", [| a; b |]) -> Term.Compound ("=<", [| b; a |])
  | t -> t

let is_test t =
  match t with
  | Term.Compound
      ( ("<" | "=<" | ">" | ">=" | "=:=" | "=\\=" | "==" | "\\==" | "\\="),
        [| _; _ |] ) ->
    true
  | _ -> false

(* The cross-branch canonical namespace: paths in the resolved goal to
   canonical variable indices. One table is shared by every branch of a
   goal, so equal paths yield equal indices. *)
type path_table = { paths : (string, int) Hashtbl.t; mutable next : int }

let canonical_of_path pt path =
  match Hashtbl.find_opt pt.paths path with
  | Some id -> id
  | None ->
    let id = pt.next in
    pt.next <- id + 1;
    Hashtbl.replace pt.paths path id;
    id

(* Walk the goal as resolved by this branch's head unifier and map each
   variable to the canonical index of its (first) position. *)
let branch_renaming pt resolved_goal =
  let map = Hashtbl.create 8 in
  let rec walk path t =
    match t with
    | Term.Var v ->
      if not (Hashtbl.mem map v) then
        Hashtbl.replace map v (canonical_of_path pt path)
    | Term.Compound (f, args) ->
      Array.iteri
        (fun i a ->
          walk (Printf.sprintf "%s.%s/%d:%d" path f (Array.length args) i) a)
        args
    | _ -> ()
  in
  walk "" resolved_goal;
  map

(* Rewrite a test into the canonical namespace; [None] if it mentions a
   variable the goal cannot reach (clause-local, hence incomparable). *)
let rec rewrite map t =
  match t with
  | Term.Var v ->
    Option.map (fun id -> Term.Var id) (Hashtbl.find_opt map v)
  | Term.Compound (f, args) -> (
    let out = Array.make (Array.length args) t in
    try
      Array.iteri
        (fun i a ->
          match rewrite map a with
          | Some a' -> out.(i) <- a'
          | None -> raise Exit)
        args;
      Some (Term.Compound (f, out))
    with Exit -> None)
  | t -> Some t

(* Complementary pairs over syntactically equal arguments. [<]/[=<] are
   mutually complementary only with their arguments swapped (a < b vs
   b =< a); the equality-shaped tests are symmetric in their arguments. *)
let complementary g1 g2 =
  let eq = Term.equal in
  match (g1, g2) with
  | Term.Compound ("<", [| a; b |]), Term.Compound ("=<", [| c; d |])
  | Term.Compound ("=<", [| c; d |]), Term.Compound ("<", [| a; b |]) ->
    eq a d && eq b c
  | Term.Compound ("=:=", [| a; b |]), Term.Compound ("=\\=", [| c; d |])
  | Term.Compound ("=\\=", [| c; d |]), Term.Compound ("=:=", [| a; b |])
  | Term.Compound ("==", [| a; b |]), Term.Compound ("\\==", [| c; d |])
  | Term.Compound ("\\==", [| c; d |]), Term.Compound ("==", [| a; b |]) ->
    (eq a c && eq b d) || (eq a d && eq b c)
  | _ -> false

let analyse_branch ~pt ~goal ~index (c : Parser.clause) s =
  let body_conjuncts =
    match c.Parser.body with
    | None -> []
    | Some b -> List.map (Subst.resolve s) (conjuncts b)
  in
  let is_fact =
    match body_conjuncts with [] | [ Term.Atom "true" ] -> true | _ -> false
  in
  let static_fail =
    List.exists
      (function Term.Atom ("fail" | "false") -> true | _ -> false)
      body_conjuncts
  in
  let map = branch_renaming pt (Subst.resolve s goal) in
  let rec test_prefix = function
    | g :: rest when is_test g -> (
      match rewrite map (canonical g) with
      | Some g -> g :: test_prefix rest
      | None -> test_prefix rest)
    | _ -> []
  in
  {
    br_index = index;
    br_fact = is_fact;
    br_static_fail = static_fail;
    br_tests = test_prefix body_conjuncts;
  }

let pair_exclusive b1 b2 =
  List.exists
    (fun g1 -> List.exists (fun g2 -> complementary g1 g2) b2.br_tests)
    b1.br_tests

let indices bs = String.concat "," (List.map (fun b -> string_of_int b.br_index) bs)

let check_goal db goal =
  let target = Term.to_string goal in
  let mk branches verdict = { target; kind = "or-branches"; branches; verdict } in
  match Term.functor_of goal with
  | None -> mk 0 (Unknown { reason = "goal is not callable" })
  | Some (name, arity) ->
    let clauses = Database.clauses db ~name ~arity in
    if clauses = [] then
      mk 0
        (Unknown
           { reason = Printf.sprintf "no clauses for %s/%d (builtin or undefined)" name arity })
    else begin
      (* Clauses are stored with variables numbered densely from 0
         (Database.normalise), so one offset renames every clause apart
         from the goal. *)
      let base = Term.max_var goal + 1 in
      let pt = { paths = Hashtbl.create 8; next = 0 } in
      let branches =
        clauses
        |> List.mapi (fun i c ->
               let head = Term.rename ~offset:base c.Parser.head in
               let body = Option.map (Term.rename ~offset:base) c.Parser.body in
               match Unify.unify Subst.empty goal head with
               | Some s ->
                 Some (analyse_branch ~pt ~goal ~index:i { Parser.head; body } s)
               | None -> None)
        |> List.filter_map Fun.id
      in
      let n = List.length branches in
      match branches with
      | [] ->
        mk 0
          (Independent
             { proof = "no clause head unifies with the goal (vacuously exclusive)" })
      | [ b ] ->
        mk 1
          (Independent
             {
               proof =
                 Printf.sprintf
                   "goal instantiation selects clause %d alone (head indexing)"
                   b.br_index;
             })
      | _ -> (
        let live, dead = List.partition (fun b -> not b.br_static_fail) branches in
        match live with
        | [] ->
          mk n
            (Independent
               {
                 proof =
                   Printf.sprintf
                     "every unifying clause (%s) has a top-level fail conjunct"
                     (indices dead);
               })
        | [ b ] ->
          mk n
            (Independent
               {
                 proof =
                   Printf.sprintf
                     "clauses %s can never succeed (top-level fail); only clause \
                      %d can win"
                     (indices dead) b.br_index;
               })
        | _ -> (
          (* Every pair of possibly-succeeding branches must be separated
             by complementary guards. *)
          let rec pairs = function
            | [] -> []
            | b :: rest -> List.map (fun b' -> (b, b')) rest @ pairs rest
          in
          let undecided =
            List.filter (fun (a, b) -> not (pair_exclusive a b)) (pairs live)
          in
          match undecided with
          | [] ->
            mk n
              (Independent
                 {
                   proof =
                     Printf.sprintf
                       "clauses %s carry pairwise complementary guard prefixes%s"
                       (indices live)
                       (if dead = [] then ""
                        else
                          Printf.sprintf " (clauses %s statically fail)"
                            (indices dead));
                 })
          | (a, b) :: _ ->
            if a.br_fact && b.br_fact then
              mk n
                (Conflicting
                   {
                     witness =
                       Printf.sprintf
                         "clauses %d and %d are both facts unifying with the \
                          goal: two branches succeed"
                         a.br_index b.br_index;
                   })
            else
              mk n
                (Unknown
                   {
                     reason =
                       Printf.sprintf
                         "clauses %d and %d are not proven disjoint (no \
                          complementary guards found)"
                         a.br_index b.br_index;
                   })))
    end

(* ------------------------------------------------------------------ *)
(* Declared effect footprints. *)

let ranges_overlap (a0, al) (b0, bl) = a0 < b0 + bl && b0 < a0 + al

let footprints_conflict (a : Alternative.footprint) (b : Alternative.footprint) =
  let pages =
    List.exists
      (fun ra -> List.exists (fun rb -> ranges_overlap ra rb) b.Alternative.writes)
      a.Alternative.writes
  in
  let touches (f : Alternative.footprint) =
    f.Alternative.reads_source || f.Alternative.writes_source
  in
  (* The source device is consumed by reads and gated on writes, so any
     two alternatives that both touch it are in conflict. *)
  let source = touches a && touches b in
  let endpoints =
    List.exists (fun e -> List.mem e b.Alternative.endpoints) a.Alternative.endpoints
  in
  if pages then Some "overlapping write ranges"
  else if source then Some "both touch the source device"
  else if endpoints then Some "shared message endpoint"
  else None

let check_footprints ~label alts =
  let n = List.length alts in
  let mk verdict = { target = label; kind = "footprints"; branches = n; verdict } in
  let declared =
    List.mapi (fun i (a : _ Alternative.t) -> (i, a.Alternative.footprint)) alts
  in
  let missing = List.filter_map (fun (i, f) -> if f = None then Some i else None) declared in
  if missing <> [] then
    mk
      (Unknown
         {
           reason =
             Printf.sprintf
               "alternative%s %s declare%s no footprint (unknown implies \
                conflicting)"
               (if List.length missing > 1 then "s" else "")
               (String.concat "," (List.map string_of_int missing))
               (if List.length missing > 1 then "" else "s");
         })
  else begin
    let fps =
      List.filter_map (fun (i, f) -> Option.map (fun f -> (i, f)) f) declared
    in
    let rec pairs = function
      | [] -> []
      | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest
    in
    let conflict =
      List.find_map
        (fun ((i, fa), (j, fb)) ->
          Option.map
            (fun why -> Printf.sprintf "alternatives %d and %d: %s" i j why)
            (footprints_conflict fa fb))
        (pairs fps)
    in
    match conflict with
    | Some witness -> mk (Conflicting { witness })
    | None ->
      mk
        (Independent
           {
             proof =
               Printf.sprintf
                 "%d declared footprints are pairwise disjoint (pages, source, \
                  endpoints)"
                 n;
           })
  end

(* ------------------------------------------------------------------ *)
(* Rendering. *)

let verdict_name = function
  | Independent _ -> "independent"
  | Conflicting _ -> "conflicting"
  | Unknown _ -> "unknown"

let verdict_detail = function
  | Independent { proof } -> proof
  | Conflicting { witness } -> witness
  | Unknown { reason } -> reason

let finding_to_json f =
  Printf.sprintf
    "{\"target\":%S,\"kind\":%S,\"branches\":%d,\"verdict\":%S,\"detail\":%S}"
    f.target f.kind f.branches (verdict_name f.verdict)
    (verdict_detail f.verdict)

let pp_finding ppf f =
  Format.fprintf ppf "[%s] %s: %s (%d branches) — %s" f.kind f.target
    (verdict_name f.verdict) f.branches (verdict_detail f.verdict)

let exit_code findings =
  if List.exists (fun f -> match f.verdict with Conflicting _ -> true | _ -> false) findings
  then Report.code_lint_conflict
  else if
    List.exists (fun f -> match f.verdict with Unknown _ -> true | _ -> false) findings
  then Report.code_lint_unknown
  else 0
