(* Tests for the Prolog engine: terms, substitutions, unification, lexer,
   parser, database, SLD resolution, and OR-parallel execution. *)

let check = Alcotest.check

let term = Alcotest.testable (fun ppf t -> Format.pp_print_string ppf (Term.to_string t)) Term.equal

(* ---------------- Term ---------------- *)

let test_term_constructors () =
  check term "compound of nothing collapses" (Term.Atom "f") (Term.compound "f" []);
  check term "list round trip"
    (Term.of_list [ Term.Int 1; Term.Int 2 ])
    (Term.cons (Term.Int 1) (Term.cons (Term.Int 2) Term.nil))

(* The elements of a proper Prolog list. *)
let rec list_of = function
  | Term.Atom "[]" -> Some []
  | Term.Compound (".", [| h; t |]) -> Option.map (fun l -> h :: l) (list_of t)
  | _ -> None

let test_term_functor_vars () =
  let t = Term.compound "f" [ Term.Var 2; Term.compound "g" [ Term.Var 0; Term.Var 2 ] ] in
  check Alcotest.bool "functor" true (Term.functor_of t = Some ("f", 2));
  check Alcotest.(list int) "vars in first-occurrence order" [ 2; 0 ] (Term.vars t);
  check Alcotest.int "max var" 2 (Term.max_var t);
  check Alcotest.int "max var of ground" (-1) (Term.max_var (Term.Atom "x"))

let test_term_rename () =
  let t = Term.compound "f" [ Term.Var 0; Term.Int 5 ] in
  check term "renamed" (Term.compound "f" [ Term.Var 10; Term.Int 5 ])
    (Term.rename ~offset:10 t)

let test_term_printing () =
  check Alcotest.string "list syntax" "[1, 2, 3]"
    (Term.to_string (Term.of_list [ Term.Int 1; Term.Int 2; Term.Int 3 ]));
  check Alcotest.string "operator syntax" "_0 = 3"
    (Term.to_string (Term.compound "=" [ Term.Var 0; Term.Int 3 ]));
  check Alcotest.string "compound" "f(a, _1)"
    (Term.to_string (Term.compound "f" [ Term.Atom "a"; Term.Var 1 ]));
  check Alcotest.string "partial list" "[a|_0]"
    (Term.to_string (Term.cons (Term.Atom "a") (Term.Var 0)))

(* ---------------- Subst ---------------- *)

let test_subst_walk_resolve () =
  let s = Subst.bind Subst.empty 0 (Term.Var 1) in
  let s = Subst.bind s 1 (Term.Atom "x") in
  check term "walk chases chains" (Term.Atom "x") (Subst.walk s (Term.Var 0));
  let t = Term.compound "f" [ Term.Var 0; Term.Var 2 ] in
  check term "resolve is deep" (Term.compound "f" [ Term.Atom "x"; Term.Var 2 ])
    (Subst.resolve s t)

let test_subst_double_bind () =
  let s = Subst.bind Subst.empty 0 (Term.Atom "a") in
  Alcotest.check_raises "no rebinding"
    (Invalid_argument "Subst.bind: variable already bound") (fun () ->
      ignore (Subst.bind s 0 (Term.Atom "b")))

let test_subst_restrict () =
  let s = Subst.bind Subst.empty 0 (Term.Int 1) in
  check Alcotest.bool "bound reported, unbound omitted" true
    (Subst.restrict s ~vars:[ 0; 1 ] = [ (0, Term.Int 1) ])

(* ---------------- Unify ---------------- *)

let test_unify_basics () =
  let u a b = Unify.unify Subst.empty a b in
  check Alcotest.bool "atoms equal" true (u (Term.Atom "a") (Term.Atom "a") <> None);
  check Alcotest.bool "atoms differ" true (u (Term.Atom "a") (Term.Atom "b") = None);
  check Alcotest.bool "ints" true (u (Term.Int 1) (Term.Int 1) <> None);
  check Alcotest.bool "int/atom clash" true (u (Term.Int 1) (Term.Atom "1") = None);
  check Alcotest.bool "arity clash" true
    (u (Term.compound "f" [ Term.Int 1 ]) (Term.compound "f" [ Term.Int 1; Term.Int 2 ])
     = None)

let test_unify_binding () =
  match Unify.unify Subst.empty (Term.Var 0) (Term.Atom "hello") with
  | Some s -> check term "bound" (Term.Atom "hello") (Subst.walk s (Term.Var 0))
  | None -> Alcotest.fail "should unify"

let test_unify_structural () =
  let a = Term.compound "f" [ Term.Var 0; Term.Atom "b" ] in
  let b = Term.compound "f" [ Term.Atom "a"; Term.Var 1 ] in
  match Unify.unify Subst.empty a b with
  | Some s ->
    check term "x bound" (Term.Atom "a") (Subst.walk s (Term.Var 0));
    check term "y bound" (Term.Atom "b") (Subst.walk s (Term.Var 1))
  | None -> Alcotest.fail "should unify"

let test_unify_occurs_check () =
  let x = Term.Var 0 in
  let fx = Term.compound "f" [ x ] in
  check Alcotest.bool "without check, cyclic binding accepted" true
    (Unify.unify Subst.empty x fx <> None);
  check Alcotest.bool "with check, rejected" true
    (Unify.unify ~occurs_check:true Subst.empty x fx = None)

let test_unify_arrays_length () =
  check Alcotest.bool "length mismatch" true
    (Unify.unify Subst.empty
       (Term.compound "f" [ Term.Int 1 ])
       (Term.compound "f" [ Term.Int 1; Term.Int 2 ])
    = None)

(* Random ground-able term pairs: if unification succeeds, applying the
   unifier to both sides must give equal terms. *)
let gen_term =
  let open QCheck.Gen in
  sized (fun n ->
      fix
        (fun self n ->
          if n <= 0 then
            oneof
              [
                map (fun i -> Term.Var (i mod 4)) small_nat;
                map (fun i -> Term.Int (i mod 10)) small_nat;
                oneofl [ Term.Atom "a"; Term.Atom "b"; Term.Atom "c" ];
              ]
          else
            frequency
              [
                (2, map (fun i -> Term.Var (i mod 4)) small_nat);
                (2, oneofl [ Term.Atom "a"; Term.Atom "b" ]);
                ( 3,
                  map2
                    (fun f args -> Term.compound f args)
                    (oneofl [ "f"; "g" ])
                    (list_size (int_range 1 3) (self (n / 2))) );
              ])
        (min n 6))

let arb_term = QCheck.make ~print:Term.to_string gen_term

let prop_unify_sound =
  QCheck.Test.make ~name:"unifier makes both sides equal" ~count:500
    (QCheck.pair arb_term arb_term) (fun (a, b) ->
      match Unify.unify ~occurs_check:true Subst.empty a b with
      | None -> true
      | Some s -> Term.equal (Subst.resolve s a) (Subst.resolve s b))

let prop_unify_symmetric =
  QCheck.Test.make ~name:"unifiability is symmetric" ~count:500
    (QCheck.pair arb_term arb_term) (fun (a, b) ->
      Unify.unify ~occurs_check:true Subst.empty a b <> None
      = (Unify.unify ~occurs_check:true Subst.empty b a <> None))

let prop_unify_reflexive =
  QCheck.Test.make ~name:"every term unifies with itself" ~count:300 arb_term
    (fun a -> Unify.unify Subst.empty a a <> None)

(* ---------------- Lexer ---------------- *)

let test_lexer_tokens () =
  check Alcotest.bool "mix" true
    (Lexer.tokens "foo(Bar, 42) :- baz."
    = [
        Lexer.Atom "foo"; Lexer.Punct "("; Lexer.Variable "Bar"; Lexer.Punct ",";
        Lexer.Integer 42; Lexer.Punct ")"; Lexer.Punct ":-"; Lexer.Atom "baz";
        Lexer.Dot; Lexer.Eof;
      ])

let test_lexer_comments () =
  check Alcotest.bool "line and block comments" true
    (Lexer.tokens "a. % comment\n/* block\ncomment */ b."
    = [ Lexer.Atom "a"; Lexer.Dot; Lexer.Atom "b"; Lexer.Dot; Lexer.Eof ])

let test_lexer_quoted () =
  check Alcotest.bool "quoted atom with space" true
    (Lexer.tokens "'hello world'." = [ Lexer.Atom "hello world"; Lexer.Dot; Lexer.Eof ]);
  check Alcotest.bool "escaped quote" true
    (Lexer.tokens "'it''s'." = [ Lexer.Atom "it's"; Lexer.Dot; Lexer.Eof ])

let test_lexer_symbolic_vs_dot () =
  check Alcotest.bool "=.. style runs" true
    (Lexer.tokens "X = Y." = [ Lexer.Variable "X"; Lexer.Punct "="; Lexer.Variable "Y";
                               Lexer.Dot; Lexer.Eof ]);
  check Alcotest.bool "dot inside symbols" true
    (List.mem (Lexer.Punct ":-") (Lexer.tokens ":- a."))

let test_lexer_errors () =
  (try
     ignore (Lexer.tokens "'unterminated");
     Alcotest.fail "should raise"
   with Lexer.Lex_error _ -> ());
  try
    ignore (Lexer.tokens "a. /* open");
    Alcotest.fail "should raise"
  with Lexer.Lex_error _ -> ()

(* ---------------- Parser ---------------- *)

let test_parser_fact_and_rule () =
  (match Parser.program "f(a). g(X) :- f(X)." with
  | [ Parser.Clause { head = h1; body = None };
      Parser.Clause { head = h2; body = Some b2 } ] ->
    check term "fact head" (Term.compound "f" [ Term.Atom "a" ]) h1;
    check term "rule head" (Term.compound "g" [ Term.Var 0 ]) h2;
    check term "rule body" (Term.compound "f" [ Term.Var 0 ]) b2
  | _ -> Alcotest.fail "unexpected parse")

let test_parser_operators_precedence () =
  match Parser.program "r(X) :- X is 1 + 2 * 3." with
  | [ Parser.Clause { Parser.body = Some (Term.Compound ("is", [| _; rhs |])); _ } ] ->
    check term "* binds tighter than +"
      (Term.compound "+" [ Term.Int 1; Term.compound "*" [ Term.Int 2; Term.Int 3 ] ])
      rhs
  | _ -> Alcotest.fail "bad body"

let test_parser_left_assoc () =
  let goal, _ = Parser.query "X is 10 - 3 - 2" in
  match goal with
  | Term.Compound ("is", [| _; rhs |]) ->
    check term "left associative"
      (Term.compound "-" [ Term.compound "-" [ Term.Int 10; Term.Int 3 ]; Term.Int 2 ])
      rhs
  | _ -> Alcotest.fail "bad goal"

let test_parser_lists () =
  let goal, _ = Parser.query "member(X, [a, b|T])" in
  match goal with
  | Term.Compound ("member", [| _; l |]) ->
    check term "list with tail"
      (Term.cons (Term.Atom "a") (Term.cons (Term.Atom "b") (Term.Var 1)))
      l
  | _ -> Alcotest.fail "bad list"

let test_parser_conjunction_structure () =
  let goal, _ = Parser.query "a, b, c" in
  check term "right-nested conjunction"
    (Term.compound "," [ Term.Atom "a"; Term.compound "," [ Term.Atom "b"; Term.Atom "c" ] ])
    goal

let test_parser_var_scoping () =
  let goal, names = Parser.query "f(X, Y, X)" in
  (match goal with
  | Term.Compound ("f", [| Term.Var a; Term.Var b; Term.Var c |]) ->
    check Alcotest.bool "same name, same var" true (a = c);
    check Alcotest.bool "distinct names distinct" true (a <> b)
  | _ -> Alcotest.fail "bad goal");
  check Alcotest.int "two named vars" 2 (List.length names)

let test_parser_underscore_fresh () =
  let goal, _ = Parser.query "f(_, _)" in
  match goal with
  | Term.Compound ("f", [| Term.Var a; Term.Var b |]) ->
    check Alcotest.bool "underscores are fresh" true (a <> b)
  | _ -> Alcotest.fail "bad goal"

let test_parser_negative_int () =
  let goal, _ = Parser.query "f(-3)" in
  check term "folded" (Term.compound "f" [ Term.Int (-3) ]) goal

let test_parser_errors () =
  (try
     ignore (Parser.program "f(a");
     Alcotest.fail "should raise"
   with Parser.Parse_error _ -> ());
  try
    ignore (Parser.program "f(a) g(b).");
    Alcotest.fail "should raise"
  with Parser.Parse_error _ -> ()

(* ---------------- Database ---------------- *)

let test_database_add_and_lookup () =
  let db = Database.create () in
  ignore (Database.add_program db "f(a). f(b). g(X) :- f(X).");
  check Alcotest.int "f/1 clauses" 2 (List.length (Database.clauses db ~name:"f" ~arity:1));
  check Alcotest.int "g/1 clauses" 1 (List.length (Database.clauses db ~name:"g" ~arity:1));
  check Alcotest.int "unknown" 0 (List.length (Database.clauses db ~name:"h" ~arity:2))

let test_database_rejects_bad_head () =
  let db = Database.create () in
  Alcotest.check_raises "var head"
    (Invalid_argument "Database.add: clause head must be callable") (fun () ->
      ignore (Database.add_program db "X."))

let test_database_directives_returned () =
  let db = Database.create () in
  let goals = Database.add_program db "f(a). ?- f(X). f(b)." in
  check Alcotest.int "one directive" 1 (List.length goals);
  check Alcotest.int "two clauses" 2 (List.length (Database.clauses db ~name:"f" ~arity:1))

let test_database_prelude_loads () =
  let db = Database.with_prelude () in
  check Alcotest.bool "append defined" true
    (List.length (Database.clauses db ~name:"append" ~arity:3) = 2)

(* ---------------- Solve ---------------- *)

let solutions db q =
  match Solve.query db q with
  | Ok sols -> sols
  | Error m -> Alcotest.failf "query %S failed: %s" q m

let first_binding db q name =
  match solutions db q with
  | sol :: _ -> List.assoc_opt name sol
  | [] -> None

let test_solve_facts_and_backtracking () =
  let db = Database.create () in
  ignore (Database.add_program db "color(red). color(green). color(blue).");
  let sols = solutions db "color(X)" in
  check Alcotest.int "three solutions" 3 (List.length sols);
  check Alcotest.bool "in clause order" true
    (List.map (fun s -> List.assoc "X" s) sols
     = [ Term.Atom "red"; Term.Atom "green"; Term.Atom "blue" ])

let test_solve_family_tree () =
  let db = Database.create () in
  ignore
    (Database.add_program db
       "parent(tom, bob). parent(tom, liz). parent(bob, ann). parent(bob, pat).
        grandparent(X, Z) :- parent(X, Y), parent(Y, Z).
        sibling(X, Y) :- parent(P, X), parent(P, Y), X \\= Y.");
  check Alcotest.int "tom's grandchildren" 2
    (List.length (solutions db "grandparent(tom, W)"));
  check Alcotest.bool "ann and pat are siblings" true
    (solutions db "sibling(ann, pat)" <> []);
  check Alcotest.bool "ann not sibling of self" true
    (solutions db "sibling(ann, ann)" = [])

let test_solve_prelude_append () =
  let db = Database.with_prelude () in
  check Alcotest.int "4 splits of a 3-list" 4
    (List.length (solutions db "append(X, Y, [1,2,3])"));
  check Alcotest.bool "append concatenates" true
    (first_binding db "append([1,2], [3], Z)" "Z"
     = Some (Term.of_list [ Term.Int 1; Term.Int 2; Term.Int 3 ]))

let test_solve_arithmetic () =
  let db = Database.with_prelude () in
  check Alcotest.bool "is" true (first_binding db "X is 2 * 21" "X" = Some (Term.Int 42));
  check Alcotest.bool "mod follows divisor sign" true
    (first_binding db "X is -7 mod 3" "X" = Some (Term.Int 2));
  check Alcotest.bool "comparison true" true (solutions db "3 < 5" <> []);
  check Alcotest.bool "comparison false" true (solutions db "5 =< 3" = []);
  check Alcotest.bool "=:=" true (solutions db "2 + 2 =:= 4" <> [])

let test_solve_arith_errors () =
  let db = Database.with_prelude () in
  (match Solve.query db "X is Y + 1" with
  | Error m -> check Alcotest.bool "instantiation error" true
                 (String.length m > 0)
  | Ok _ -> Alcotest.fail "unbound arithmetic must error");
  match Solve.query db "X is 1 / 0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "division by zero must error"

let test_solve_unification_builtins () =
  let db = Database.with_prelude () in
  check Alcotest.bool "=" true (first_binding db "X = f(1)" "X"
                                = Some (Term.compound "f" [ Term.Int 1 ]));
  check Alcotest.bool "\\= fails on unifiable" true (solutions db "f(X) \\= f(1)" = []);
  check Alcotest.bool "\\= succeeds on clash" true (solutions db "a \\= b" <> []);
  check Alcotest.bool "== structural" true (solutions db "f(a) == f(a)" <> []);
  check Alcotest.bool "== distinguishes unbound" true (solutions db "X == Y" = [])

let test_solve_type_tests () =
  let db = Database.with_prelude () in
  check Alcotest.bool "var" true (solutions db "var(X)" <> []);
  check Alcotest.bool "nonvar" true (solutions db "nonvar(f(X))" <> []);
  check Alcotest.bool "atom" true (solutions db "atom(foo)" <> []);
  check Alcotest.bool "integer" true (solutions db "integer(3)" <> []);
  check Alcotest.bool "atom(3) fails" true (solutions db "atom(3)" = [])

let test_solve_cut () =
  let db = Database.create () in
  ignore
    (Database.add_program db
       "first([X|_], X) :- !. first(_, none).
        maxc(X, Y, X) :- X >= Y, !. maxc(_, Y, Y).");
  let sols = solutions db "first([a,b], W)" in
  check Alcotest.int "cut prunes second clause" 1 (List.length sols);
  check Alcotest.bool "cut committed to first" true
    (List.assoc "W" (List.hd sols) = Term.Atom "a");
  check Alcotest.bool "maxc" true (first_binding db "maxc(3, 7, M)" "M" = Some (Term.Int 7))

let test_solve_if_then_else () =
  let db = Database.create () in
  ignore (Database.add_program db "classify(X, neg) :- (X < 0 -> true ; fail).
                                   classify(X, nonneg) :- (X < 0 -> fail ; true).");
  check Alcotest.bool "then branch" true
    (first_binding db "classify(-1, C)" "C" = Some (Term.Atom "neg"));
  check Alcotest.bool "else branch" true
    (first_binding db "classify(4, C)" "C" = Some (Term.Atom "nonneg"))

let test_solve_negation_as_failure () =
  let db = Database.with_prelude () in
  check Alcotest.bool "not of failure" true
    (solutions db "not(member(z, [a,b]))" <> []);
  check Alcotest.bool "not of success" true
    (solutions db "not(member(a, [a,b]))" = [])

let test_solve_disjunction () =
  let db = Database.create () in
  ignore (Database.add_program db "d(X) :- X = 1 ; X = 2.");
  check Alcotest.int "both disjuncts" 2 (List.length (solutions db "d(X)"))

let contains_substring s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_solve_unknown_predicate () =
  let db = Database.create () in
  match Solve.query db "nonexistent(X)" with
  | Error m ->
    check Alcotest.bool "mentions the predicate" true
      (contains_substring m "nonexistent")
  | Ok _ -> Alcotest.fail "unknown predicates must error"

let test_solve_depth_limit () =
  let db = Database.create () in
  ignore (Database.add_program db "loop :- loop.");
  let goal, _ = Parser.query "loop" in
  let r = Solve.run ~max_depth:100 db goal in
  check Alcotest.bool "no solutions" true (r.Solve.solutions = []);
  check Alcotest.bool "depth flag set" true r.Solve.depth_exceeded

let test_solve_max_solutions () =
  let db = Database.with_prelude () in
  let goal, _ = Parser.query "between(1, 1000, X)" in
  let r = Solve.run ~max_solutions:5 db goal in
  check Alcotest.int "early stop" 5 (List.length r.Solve.solutions)

let test_solve_inference_counting () =
  let db = Database.with_prelude () in
  let goal, _ = Parser.query "append([1,2,3], [4], Z)" in
  let short = (Solve.run ~max_solutions:1 db goal).Solve.inferences in
  let goal2, _ = Parser.query "append([1,2,3,4,5,6], [7], Z)" in
  let long = (Solve.run ~max_solutions:1 db goal2).Solve.inferences in
  check Alcotest.bool "work grows with input" true (long > short);
  check Alcotest.bool "positive" true (short > 0)

let test_solve_succeeds_first () =
  let db = Database.with_prelude () in
  let first q = (Solve.run ~max_solutions:1 db (fst (Parser.query q))).Solve.solutions in
  check Alcotest.bool "first returns bindings" true (first "member(b, [a, b, c])" = [ [] ]);
  check Alcotest.bool "fails" true (first "member(z, [a])" = [])

(* ---------------- findall / forall / \+ ---------------- *)

let test_findall_collects_in_order () =
  let db = Database.with_prelude () in
  ignore (Database.add_program db "col(r). col(g). col(b).");
  check Alcotest.bool "findall list" true
    (first_binding db "findall(X, col(X), L)" "L"
     = Some (Term.of_list [ Term.Atom "r"; Term.Atom "g"; Term.Atom "b" ]))

let test_findall_empty_on_failure () =
  let db = Database.with_prelude () in
  check Alcotest.bool "empty list" true
    (first_binding db "findall(X, member(X, []), L)" "L" = Some Term.nil)

let test_findall_with_template () =
  let db = Database.with_prelude () in
  check Alcotest.bool "templates resolved per solution" true
    (first_binding db "findall(p(X), member(X, [1,2]), L)" "L"
     = Some
         (Term.of_list
            [ Term.compound "p" [ Term.Int 1 ]; Term.compound "p" [ Term.Int 2 ] ]))

let test_forall () =
  let db = Database.with_prelude () in
  check Alcotest.bool "all evens" true
    (solutions db "forall(member(X, [2,4,6]), X mod 2 =:= 0)" <> []);
  check Alcotest.bool "counterexample fails" true
    (solutions db "forall(member(X, [2,3]), X mod 2 =:= 0)" = []);
  check Alcotest.bool "vacuous truth" true
    (solutions db "forall(member(X, []), fail)" <> [])

let test_prefix_negation_operator () =
  let db = Database.with_prelude () in
  check Alcotest.bool "\\+ parses and works" true
    (solutions db "\\+ member(z, [a,b])" <> []);
  check Alcotest.bool "\\+ of success fails" true
    (solutions db "\\+ member(a, [a,b])" = [])

let test_nqueens_integration () =
  let db = Database.with_prelude () in
  ignore
    (Database.add_program db
       "range(L, H, []) :- L > H.
        range(L, H, [L|T]) :- L =< H, L1 is L + 1, range(L1, H, T).
        solve_q([], Acc, Acc).
        solve_q(Unplaced, Acc, Qs) :-
          select(Q, Unplaced, Rest),
          \\+ attacks(Q, Acc),
          solve_q(Rest, [Q|Acc], Qs).
        attacks(Q, Acc) :- att(Q, 1, Acc).
        att(Q, D, [P|_]) :- P =:= Q + D.
        att(Q, D, [P|_]) :- P =:= Q - D.
        att(Q, D, [_|Ps]) :- D1 is D + 1, att(Q, D1, Ps).
        nqueens(N, Qs) :- range(1, N, Ns), solve_q(Ns, [], Qs).");
  (* 6-queens has exactly 4 solutions. *)
  (match first_binding db "findall(Qs, nqueens(6, Qs), All), length(All, N)" "N" with
  | Some (Term.Int 4) -> ()
  | Some t -> Alcotest.failf "expected 4 solutions, got %s" (Term.to_string t)
  | None -> Alcotest.fail "no answer");
  (* And each reported board is a valid permutation. *)
  match first_binding db "nqueens(6, Qs)" "Qs" with
  | Some qs -> (
    match list_of qs with
    | Some cells ->
      let ints =
        List.filter_map (function Term.Int i -> Some i | _ -> None) cells
      in
      check Alcotest.int "six queens" 6 (List.length ints);
      check Alcotest.bool "a permutation of 1..6" true
        (List.sort compare ints = [ 1; 2; 3; 4; 5; 6 ])
    | None -> Alcotest.fail "solution is not a list")
  | None -> Alcotest.fail "no board found"

let test_or_parallel_nqueens () =
  (* The nqueens top goal has two range clauses -> 1 viable branch, but
     solve_q's select produces deep nondeterminism; race the top-level
     clauses of solve_q via a wrapper predicate with distinct strategies. *)
  let db = Database.with_prelude () in
  ignore
    (Database.add_program db
       "range(L, H, []) :- L > H.
        range(L, H, [L|T]) :- L =< H, L1 is L + 1, range(L1, H, T).
        solve_q([], Acc, Acc).
        solve_q(Unplaced, Acc, Qs) :-
          select(Q, Unplaced, Rest),
          \\+ attacks(Q, Acc),
          solve_q(Rest, [Q|Acc], Qs).
        attacks(Q, Acc) :- att(Q, 1, Acc).
        att(Q, D, [P|_]) :- P =:= Q + D.
        att(Q, D, [P|_]) :- P =:= Q - D.
        att(Q, D, [_|Ps]) :- D1 is D + 1, att(Q, D1, Ps).
        board(hard, Qs) :- range(1, 7, Ns), solve_q(Ns, [], Qs).
        board(easy, Qs) :- range(1, 5, Ns), solve_q(Ns, [], Qs).");
  let goal, _ = Parser.query "board(Which, Qs)" in
  let r = Or_parallel.solve_sim db goal in
  (* Sequential order tries 'hard' first; the race returns whichever board
     finishes first (the 5-queens one). *)
  check Alcotest.bool "a solution arrived" true (r.Or_parallel.first_solution <> None);
  check Alcotest.bool "the easy board won" true (r.Or_parallel.winner_branch = Some 1);
  check Alcotest.bool "speedup over clause order" true (r.Or_parallel.speedup > 1.)

(* ---------------- Branches / OR-parallel ---------------- *)

let test_branches_cover_all_solutions () =
  let db = Database.with_prelude () in
  let goal, _ = Parser.query "append(X, Y, [1,2])" in
  let qvars = Term.vars goal in
  let all = (Solve.run db goal).Solve.solutions in
  let via_branches =
    List.concat_map
      (fun b -> (Solve.run_branch db ~query_vars:qvars b).Solve.solutions)
      (Solve.branches db goal)
  in
  check Alcotest.int "same number of solutions" (List.length all)
    (List.length via_branches);
  List.iter
    (fun s ->
      if not (List.mem s via_branches) then Alcotest.fail "missing solution")
    all

let test_branches_of_builtin_empty () =
  let db = Database.with_prelude () in
  let goal, _ = Parser.query "X is 1 + 1" in
  check Alcotest.int "builtins have no clause branches" 0
    (List.length (Solve.branches db goal))

let or_db () =
  let db = Database.with_prelude () in
  ignore
    (Database.add_program db
       "burn(0). burn(N) :- N > 0, M is N - 1, burn(M).
        route(slow1) :- burn(500), fail.
        route(slow2) :- burn(800), fail.
        route(quick) :- burn(20).");
  db

let test_or_parallel_sim_speedup () =
  let db = or_db () in
  let goal, _ = Parser.query "route(R)" in
  let r = Or_parallel.solve_sim ~seed:1 db goal in
  check Alcotest.bool "winner is the quick clause" true
    (r.Or_parallel.winner_branch = Some 2);
  check Alcotest.bool "solution found" true
    (match r.Or_parallel.first_solution with
     | Some [ (_, Term.Atom "quick") ] -> true
     | _ -> false);
  check Alcotest.bool "parallel beats sequential" true
    (r.Or_parallel.speedup > 5.);
  check Alcotest.int "three branches" 3 (Array.length r.Or_parallel.branch_inferences);
  check Alcotest.bool "sequential paid for failing prefixes" true
    (r.Or_parallel.seq_inferences
     > r.Or_parallel.branch_inferences.(2))

let test_or_parallel_sim_no_solution () =
  let db = Database.with_prelude () in
  ignore (Database.add_program db "dead(x) :- fail. dead(y) :- fail.");
  let goal, _ = Parser.query "dead(D)" in
  let r = Or_parallel.solve_sim db goal in
  check Alcotest.bool "no solution" true (r.Or_parallel.first_solution = None)

let test_or_parallel_sim_cow_sharing () =
  let db = or_db () in
  let goal, _ = Parser.query "route(R)" in
  let r = Or_parallel.solve_sim ~heap_bytes:(64 * 1024) db goal in
  (* Branches write bindings: some pages privatised, but far fewer than the
     whole heap (read-mostly sharing, section 7). *)
  let heap_pages = 64 * 1024 / Cost_model.modern.Cost_model.page_size in
  check Alcotest.bool "some copies" true (r.Or_parallel.cow_copies > 0);
  check Alcotest.bool "far fewer copies than 3 full heaps" true
    (r.Or_parallel.cow_copies < 3 * heap_pages)

let test_or_parallel_real_agrees () =
  let db = or_db () in
  let goal, _ = Parser.query "route(R)" in
  let r = Or_parallel.solve_real ~timeout:30. db goal in
  check Alcotest.bool "real race finds the quick route" true
    (match r.Or_parallel.value with
     | Some [ (_, Term.Atom "quick") ] -> true
     | _ -> false)

(* ---------------- AND-parallelism ---------------- *)

(* The independent groups [And_parallel.solve_sim] finds for [q]. *)
let and_groups q =
  let db = Database.create () in
  ignore
    (Database.add_program db
       "a. b. c. d. e. just_one. p(1). q(2). r(1). s(3). p(1, 2). q(2, 3). r(3).");
  (And_parallel.solve_sim db (fst (Parser.query q))).And_parallel.groups

let test_and_conjuncts_flatten () =
  check Alcotest.int "five conjuncts" 5 (and_groups "a, b, (c, d), e");
  check Alcotest.int "single goal" 1 (and_groups "just_one")

let test_and_independent_groups () =
  (* p(X) and r(X) share X; q(Y) and s(Z) are each alone. *)
  check Alcotest.int "three groups" 3 (and_groups "p(X), q(Y), r(X), s(Z)")

let test_and_transitive_sharing () =
  check Alcotest.int "one chained group" 1 (and_groups "p(X, Y), q(Y, Z), r(Z)")

let and_db () =
  let db = Database.with_prelude () in
  ignore
    (Database.add_program db
       "burn(0). burn(N) :- N > 0, M is N - 1, burn(M).
        left(a) :- burn(500).
        right(b) :- burn(2000).
        mid(c) :- burn(1000).");
  db

let test_and_parallel_solves_and_speeds_up () =
  let db = and_db () in
  let goal, _ = Parser.query "left(X), right(Y), mid(Z)" in
  let r = And_parallel.solve_sim db goal in
  check Alcotest.int "three groups" 3 r.And_parallel.groups;
  (match r.And_parallel.solution with
  | Some bindings ->
    check Alcotest.int "all three bound" 3 (List.length bindings)
  | None -> Alcotest.fail "expected a combined solution");
  (* Elapsed is the slowest group, so speedup = sum/max < number of groups. *)
  check Alcotest.bool "faster than sequential" true (r.And_parallel.speedup > 1.5);
  check Alcotest.bool "bounded by max group" true
    (r.And_parallel.speedup < 3.);
  (* The OR contrast: AND must wait for the slowest, never the fastest. *)
  let max_group =
    float_of_int (Array.fold_left max 0 r.And_parallel.group_inferences)
  in
  check Alcotest.bool "par time >= slowest group's work" true
    (r.And_parallel.par_time >= max_group *. 1e-4 -. 1e-9)

let test_and_parallel_dependent_degenerates () =
  let db = and_db () in
  let goal, _ = Parser.query "left(X), mid(X)" in
  let r = And_parallel.solve_sim db goal in
  check Alcotest.int "one group" 1 r.And_parallel.groups;
  check Alcotest.bool "no solution (a <> c)" true (r.And_parallel.solution = None)

let test_and_parallel_failure_propagates () =
  let db = and_db () in
  ignore (Database.add_program db "never(x) :- fail.");
  let goal, _ = Parser.query "left(X), never(Y)" in
  let r = And_parallel.solve_sim db goal in
  check Alcotest.bool "one failing conjunct fails the conjunction" true
    (r.And_parallel.solution = None)

(* ---------------- classic programs / relational properties --------- *)

let test_map_coloring () =
  (* Colour Australia's mainland states with three colours. *)
  let db = Database.with_prelude () in
  ignore
    (Database.add_program db
       "colour(red). colour(green). colour(blue).
        diff(X, Y) :- colour(X), colour(Y), X \\= Y.
        australia(WA, NT, SA, Q, NSW, V) :-
          diff(WA, NT), diff(WA, SA), diff(NT, SA), diff(NT, Q),
          diff(SA, Q), diff(SA, NSW), diff(SA, V), diff(Q, NSW),
          diff(NSW, V).");
  let sols = solutions db "australia(WA, NT, SA, Q, NSW, V)" in
  check Alcotest.bool "colourings exist" true (List.length sols > 0);
  (* Verify a returned colouring really is proper. *)
  (match sols with
  | first :: _ ->
    let colour_of name = List.assoc name first in
    let adjacent =
      [ ("WA","NT"); ("WA","SA"); ("NT","SA"); ("NT","Q"); ("SA","Q");
        ("SA","NSW"); ("SA","V"); ("Q","NSW"); ("NSW","V") ]
    in
    List.iter
      (fun (a, b) ->
        if Term.equal (colour_of a) (colour_of b) then
          Alcotest.failf "%s and %s share a colour" a b)
      adjacent
  | [] -> Alcotest.fail "unreachable");
  (* 3-colourings of this map come in colour permutations: a multiple of 6. *)
  check Alcotest.int "solution count divisible by 3!" 0 (List.length sols mod 6)

let pl_int_list l = Term.to_string (Term.of_list (List.map (fun i -> Term.Int i) l))

let prop_prolog_reverse_involution =
  QCheck.Test.make ~name:"prolog: reverse(reverse(L)) = L" ~count:60
    QCheck.(list_of_size Gen.(int_range 0 8) (int_bound 50))
    (fun l ->
      let db = Database.with_prelude () in
      let q = Printf.sprintf "reverse(%s, R), reverse(R, L2)" (pl_int_list l) in
      match Solve.query db q with
      | Ok (sol :: _) ->
        List.assoc_opt "L2" sol = Some (Term.of_list (List.map (fun i -> Term.Int i) l))
      | _ -> false)

let prop_prolog_append_length =
  QCheck.Test.make ~name:"prolog: |append(A,B)| = |A|+|B|" ~count:60
    QCheck.(pair
              (list_of_size Gen.(int_range 0 6) (int_bound 9))
              (list_of_size Gen.(int_range 0 6) (int_bound 9)))
    (fun (a, b) ->
      let db = Database.with_prelude () in
      let q =
        Printf.sprintf "append(%s, %s, C), length(C, N)" (pl_int_list a)
          (pl_int_list b)
      in
      match Solve.query db q with
      | Ok (sol :: _) ->
        List.assoc_opt "N" sol = Some (Term.Int (List.length a + List.length b))
      | _ -> false)

let prop_prolog_member_complete =
  QCheck.Test.make ~name:"prolog: member/2 enumerates exactly the elements"
    ~count:60
    QCheck.(list_of_size Gen.(int_range 1 7) (int_bound 9))
    (fun l ->
      let db = Database.with_prelude () in
      let q = Printf.sprintf "member(X, %s)" (pl_int_list l) in
      match Solve.query db q with
      | Ok sols ->
        List.map (fun s -> List.assoc "X" s) sols
        = List.map (fun i -> Term.Int i) l
      | Error _ -> false)

let () =
  Alcotest.run "prolog"
    [
      ( "term",
        [
          Alcotest.test_case "constructors" `Quick test_term_constructors;
          Alcotest.test_case "functor and vars" `Quick test_term_functor_vars;
          Alcotest.test_case "rename" `Quick test_term_rename;
          Alcotest.test_case "printing" `Quick test_term_printing;
        ] );
      ( "subst",
        [
          Alcotest.test_case "walk and resolve" `Quick test_subst_walk_resolve;
          Alcotest.test_case "no rebinding" `Quick test_subst_double_bind;
          Alcotest.test_case "restrict" `Quick test_subst_restrict;
        ] );
      ( "unify",
        [
          Alcotest.test_case "basics" `Quick test_unify_basics;
          Alcotest.test_case "binding" `Quick test_unify_binding;
          Alcotest.test_case "structural" `Quick test_unify_structural;
          Alcotest.test_case "occurs check" `Quick test_unify_occurs_check;
          Alcotest.test_case "array length" `Quick test_unify_arrays_length;
          QCheck_alcotest.to_alcotest prop_unify_sound;
          QCheck_alcotest.to_alcotest prop_unify_symmetric;
          QCheck_alcotest.to_alcotest prop_unify_reflexive;
        ] );
      ( "lexer",
        [
          Alcotest.test_case "token mix" `Quick test_lexer_tokens;
          Alcotest.test_case "comments" `Quick test_lexer_comments;
          Alcotest.test_case "quoted atoms" `Quick test_lexer_quoted;
          Alcotest.test_case "symbolic vs clause dot" `Quick test_lexer_symbolic_vs_dot;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "facts and rules" `Quick test_parser_fact_and_rule;
          Alcotest.test_case "operator precedence" `Quick test_parser_operators_precedence;
          Alcotest.test_case "left associativity" `Quick test_parser_left_assoc;
          Alcotest.test_case "lists" `Quick test_parser_lists;
          Alcotest.test_case "conjunction structure" `Quick test_parser_conjunction_structure;
          Alcotest.test_case "variable scoping" `Quick test_parser_var_scoping;
          Alcotest.test_case "underscore fresh" `Quick test_parser_underscore_fresh;
          Alcotest.test_case "negative integers" `Quick test_parser_negative_int;
          Alcotest.test_case "errors" `Quick test_parser_errors;
        ] );
      ( "database",
        [
          Alcotest.test_case "add and lookup" `Quick test_database_add_and_lookup;
          Alcotest.test_case "rejects bad head" `Quick test_database_rejects_bad_head;
          Alcotest.test_case "directives returned" `Quick test_database_directives_returned;
          Alcotest.test_case "prelude loads" `Quick test_database_prelude_loads;
        ] );
      ( "solve",
        [
          Alcotest.test_case "facts and backtracking" `Quick test_solve_facts_and_backtracking;
          Alcotest.test_case "family tree" `Quick test_solve_family_tree;
          Alcotest.test_case "prelude append" `Quick test_solve_prelude_append;
          Alcotest.test_case "arithmetic" `Quick test_solve_arithmetic;
          Alcotest.test_case "arithmetic errors" `Quick test_solve_arith_errors;
          Alcotest.test_case "unification builtins" `Quick test_solve_unification_builtins;
          Alcotest.test_case "type tests" `Quick test_solve_type_tests;
          Alcotest.test_case "cut" `Quick test_solve_cut;
          Alcotest.test_case "if-then-else" `Quick test_solve_if_then_else;
          Alcotest.test_case "negation as failure" `Quick test_solve_negation_as_failure;
          Alcotest.test_case "disjunction" `Quick test_solve_disjunction;
          Alcotest.test_case "unknown predicate" `Quick test_solve_unknown_predicate;
          Alcotest.test_case "depth limit" `Quick test_solve_depth_limit;
          Alcotest.test_case "max solutions" `Quick test_solve_max_solutions;
          Alcotest.test_case "inference counting" `Quick test_solve_inference_counting;
          Alcotest.test_case "succeeds/first" `Quick test_solve_succeeds_first;
        ] );
      ( "builtins-extended",
        [
          Alcotest.test_case "findall collects in order" `Quick test_findall_collects_in_order;
          Alcotest.test_case "findall empty" `Quick test_findall_empty_on_failure;
          Alcotest.test_case "findall template" `Quick test_findall_with_template;
          Alcotest.test_case "forall" `Quick test_forall;
          Alcotest.test_case "prefix negation" `Quick test_prefix_negation_operator;
          Alcotest.test_case "n-queens" `Quick test_nqueens_integration;
          Alcotest.test_case "or-parallel n-queens" `Quick test_or_parallel_nqueens;
        ] );
      ( "programs",
        [
          Alcotest.test_case "map colouring" `Quick test_map_coloring;
          QCheck_alcotest.to_alcotest prop_prolog_reverse_involution;
          QCheck_alcotest.to_alcotest prop_prolog_append_length;
          QCheck_alcotest.to_alcotest prop_prolog_member_complete;
        ] );
      ( "and_parallel",
        [
          Alcotest.test_case "conjuncts flatten" `Quick test_and_conjuncts_flatten;
          Alcotest.test_case "independent groups" `Quick test_and_independent_groups;
          Alcotest.test_case "transitive sharing" `Quick test_and_transitive_sharing;
          Alcotest.test_case "solves and speeds up" `Quick
            test_and_parallel_solves_and_speeds_up;
          Alcotest.test_case "dependent degenerates" `Quick
            test_and_parallel_dependent_degenerates;
          Alcotest.test_case "failure propagates" `Quick
            test_and_parallel_failure_propagates;
        ] );
      ( "or_parallel",
        [
          Alcotest.test_case "branches cover all solutions" `Quick
            test_branches_cover_all_solutions;
          Alcotest.test_case "builtin goals have no branches" `Quick
            test_branches_of_builtin_empty;
          Alcotest.test_case "simulated speedup" `Quick test_or_parallel_sim_speedup;
          Alcotest.test_case "no solution" `Quick test_or_parallel_sim_no_solution;
          Alcotest.test_case "cow sharing is read-mostly" `Quick
            test_or_parallel_sim_cow_sharing;
          Alcotest.test_case "real fork race agrees" `Quick test_or_parallel_real_agrees;
        ] );
    ]
