exception Prolog_error of string

let error fmt = Format.kasprintf (fun s -> raise (Prolog_error s)) fmt

type result = {
  solutions : (int * Term.t) list list;
  inferences : int;
  depth_exceeded : bool;
}

type st = {
  db : Database.t;
  max_depth : int;
  occurs_check : bool;
  mutable inferences : int;
  mutable depth_exceeded : bool;
  mutable next_var : int;
  mutable next_barrier : int;
}

exception Enough
exception Cut_signal of int

let fresh_barrier st =
  let b = st.next_barrier in
  st.next_barrier <- b + 1;
  b

let clause_var_count (c : Parser.clause) =
  let m = Term.max_var c.Parser.head in
  let m =
    match c.Parser.body with
    | None -> m
    | Some b -> max m (Term.max_var b)
  in
  m + 1

(* Solve [goals] under [subst]; call [sk] on each solution substitution.
   [cut_id] is the barrier a '!' in these goals cuts to. *)
let rec solve st depth cut_id subst goals sk =
  match goals with
  | [] -> sk subst
  | g :: rest -> (
    st.inferences <- st.inferences + 1;
    let g = Subst.walk subst g in
    match g with
    | Term.Var _ -> error "unbound variable used as a goal"
    | Term.Int _ -> error "integer used as a goal"
    | Term.Atom "true" -> solve st depth cut_id subst rest sk
    | Term.Atom ("fail" | "false") -> ()
    | Term.Atom "!" ->
      solve st depth cut_id subst rest sk;
      raise (Cut_signal cut_id)
    | Term.Compound (",", [| a; b |]) ->
      solve st depth cut_id subst (a :: b :: rest) sk
    | Term.Compound (";", [| Term.Compound ("->", [| cond; then_ |]); else_ |])
      ->
      solve_ite st depth cut_id subst ~cond ~then_ ~else_ rest sk
    | Term.Compound ("->", [| cond; then_ |]) ->
      solve_ite st depth cut_id subst ~cond ~then_ ~else_:(Term.Atom "fail")
        rest sk
    | Term.Compound (";", [| a; b |]) ->
      solve st depth cut_id subst (a :: rest) sk;
      solve st depth cut_id subst (b :: rest) sk
    | Term.Compound ("=", [| a; b |]) -> (
      match Unify.unify ~occurs_check:st.occurs_check subst a b with
      | Some s' -> solve st depth cut_id s' rest sk
      | None -> ())
    | Term.Compound ("\\=", [| a; b |]) -> (
      match Unify.unify ~occurs_check:st.occurs_check subst a b with
      | Some _ -> ()
      | None -> solve st depth cut_id subst rest sk)
    | Term.Compound ("is", [| lhs; rhs |]) -> (
      let v =
        try Arith.eval subst rhs with Arith.Eval_error m -> error "is/2: %s" m
      in
      match
        Unify.unify ~occurs_check:st.occurs_check subst lhs (Term.Int v)
      with
      | Some s' -> solve st depth cut_id s' rest sk
      | None -> ())
    | Term.Compound (("==" | "\\==") as op, [| a; b |]) ->
      let eq = Term.equal (Subst.resolve subst a) (Subst.resolve subst b) in
      if eq = String.equal op "==" then solve st depth cut_id subst rest sk
    | Term.Compound (op, [| a; b |]) when Arith.compare_op op <> None -> (
      match Arith.compare_op op with
      | Some cmp ->
        let x, y =
          try (Arith.eval subst a, Arith.eval subst b)
          with Arith.Eval_error m -> error "%s/2: %s" op m
        in
        if cmp x y then solve st depth cut_id subst rest sk
      | None -> assert false)
    | Term.Compound ("var", [| a |]) -> (
      match Subst.walk subst a with
      | Term.Var _ -> solve st depth cut_id subst rest sk
      | _ -> ())
    | Term.Compound ("nonvar", [| a |]) -> (
      match Subst.walk subst a with
      | Term.Var _ -> ()
      | _ -> solve st depth cut_id subst rest sk)
    | Term.Compound ("atom", [| a |]) -> (
      match Subst.walk subst a with
      | Term.Atom _ -> solve st depth cut_id subst rest sk
      | _ -> ())
    | Term.Compound ("integer", [| a |]) -> (
      match Subst.walk subst a with
      | Term.Int _ -> solve st depth cut_id subst rest sk
      | _ -> ())
    | Term.Compound (("not" | "\\+"), [| goal |]) ->
      if not (has_solution st depth subst goal) then
        solve st depth cut_id subst rest sk
    | Term.Compound ("findall", [| template; goal; out |]) -> (
      let results = ref [] in
      let b = fresh_barrier st in
      (try
         solve st (depth + 1) b subst [ goal ] (fun s' ->
             results := Subst.resolve s' template :: !results)
       with Cut_signal b' when b' = b -> ());
      let collected = Term.of_list (List.rev !results) in
      match Unify.unify ~occurs_check:st.occurs_check subst out collected with
      | Some s' -> solve st depth cut_id s' rest sk
      | None -> ())
    | Term.Compound ("forall", [| cond; action |]) ->
      (* forall(C, A): no solution of C lacks a solution of A. *)
      let counterexample = ref false in
      let b = fresh_barrier st in
      (try
         solve st (depth + 1) b subst [ cond ] (fun s' ->
             if not (has_solution st depth s' action) then begin
               counterexample := true;
               raise (Cut_signal b)
             end)
       with Cut_signal b' when b' = b -> ());
      if not !counterexample then solve st depth cut_id subst rest sk
    | Term.Compound ("call", [| goal |]) ->
      solve st depth cut_id subst (goal :: rest) sk
    | Term.Atom _ | Term.Compound _ -> solve_user st depth subst g rest sk)

(* If-then-else commits to the first solution of the condition. *)
and solve_ite st depth cut_id subst ~cond ~then_ ~else_ rest sk =
  let committed = ref None in
  let b = fresh_barrier st in
  (try
     solve st (depth + 1) b subst [ cond ] (fun s' ->
         committed := Some s';
         raise (Cut_signal b))
   with Cut_signal b' when b' = b -> ());
  match !committed with
  | Some s' -> solve st depth cut_id s' (then_ :: rest) sk
  | None -> solve st depth cut_id subst (else_ :: rest) sk

(* Negation as failure: does the goal have at least one solution? *)
and has_solution st depth subst goal =
  let found = ref false in
  let b = fresh_barrier st in
  (try
     solve st (depth + 1) b subst [ goal ] (fun _ ->
         found := true;
         raise (Cut_signal b))
   with Cut_signal b' when b' = b -> ());
  !found

and solve_user st depth subst g rest sk =
  if depth >= st.max_depth then st.depth_exceeded <- true
  else begin
    let name, arity =
      match Term.functor_of g with
      | Some f -> f
      | None -> assert false
    in
    let clauses = Database.clauses st.db ~name ~arity in
    if clauses = [] then error "unknown predicate %s/%d" name arity;
    let b = fresh_barrier st in
    try
      List.iter
        (fun (clause : Parser.clause) ->
          let offset = st.next_var in
          st.next_var <- offset + clause_var_count clause;
          let head = Term.rename ~offset clause.Parser.head in
          match Unify.unify ~occurs_check:st.occurs_check subst g head with
          | None -> ()
          | Some s' ->
            let goals =
              match clause.Parser.body with
              | None -> rest
              | Some body -> Term.rename ~offset body :: rest
            in
            solve st (depth + 1) b s' goals sk)
        clauses
    with Cut_signal b' when b' = b -> ()
  end

let make_st ?(max_depth = 100_000) ?(occurs_check = false) db ~next_var =
  {
    db;
    max_depth;
    occurs_check;
    inferences = 0;
    depth_exceeded = false;
    next_var;
    next_barrier = 1;
  }

let collect st ~max_solutions ~qvars ~subst ~goals =
  let solutions = ref [] in
  let count = ref 0 in
  let sk s =
    solutions := Subst.restrict s ~vars:qvars :: !solutions;
    incr count;
    match max_solutions with
    | Some m when !count >= m -> raise Enough
    | _ -> ()
  in
  (try solve st 0 0 subst goals sk with
  | Enough -> ()
  | Cut_signal _ -> ());
  {
    solutions = List.rev !solutions;
    inferences = st.inferences;
    depth_exceeded = st.depth_exceeded;
  }

let run ?max_depth ?max_solutions ?occurs_check db goal =
  let st = make_st ?max_depth ?occurs_check db ~next_var:(Term.max_var goal + 1) in
  collect st ~max_solutions ~qvars:(Term.vars goal) ~subst:Subst.empty
    ~goals:[ goal ]

let query db src =
  match Parser.query src with
  | exception Parser.Parse_error m -> Error ("parse error: " ^ m)
  | exception Lexer.Lex_error { message; _ } -> Error ("lex error: " ^ message)
  | goal, names -> (
    match run db goal with
    | exception Prolog_error m -> Error m
    | { solutions; _ } ->
      let name_of v =
        match List.assoc_opt v names with
        | Some n -> n
        | None -> "_" ^ string_of_int v
      in
      Ok
        (List.map
           (fun bindings -> List.map (fun (v, t) -> (name_of v, t)) bindings)
           solutions))

type branch = {
  branch_index : int;
  goals : Term.t list;
  subst : Subst.t;
  next_var : int;
}

let branches db goal =
  match Term.functor_of goal with
  | None -> []
  | Some (name, arity) ->
    let base = Term.max_var goal + 1 in
    let clauses = Database.clauses db ~name ~arity in
    List.concat
      (List.mapi
         (fun i (clause : Parser.clause) ->
           (* Each branch is independent, so they can share the same
              renaming offset. *)
           let head = Term.rename ~offset:base clause.Parser.head in
           match Unify.unify Subst.empty goal head with
           | None -> []
           | Some subst ->
             let goals =
               match clause.Parser.body with
               | None -> []
               | Some body -> [ Term.rename ~offset:base body ]
             in
             [
               {
                 branch_index = i;
                 goals;
                 subst;
                 next_var = base + clause_var_count clause;
               };
             ])
         clauses)

let run_branch ?max_depth ?max_solutions db ~query_vars branch =
  let st = make_st ?max_depth db ~next_var:branch.next_var in
  collect st ~max_solutions ~qvars:query_vars ~subst:branch.subst
    ~goals:branch.goals
