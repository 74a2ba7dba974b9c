(* Tests for altlint: the static alternative-independence analyzer and
   the consensus-elision fast path its proofs license. *)

let check = Alcotest.check

let db_of src =
  let db = Database.with_prelude () in
  ignore (Database.add_program db src);
  db

let goal s = fst (Parser.query s)

let verdict_name f = Lint.verdict_name f.Lint.verdict

let find db s = Lint.check_goal db (goal s)

(* ---------------- OR-branch analysis ---------------- *)

let plan_program =
  {|
  burn(0).
  burn(N) :- N > 0, M is N - 1, burn(M).
  plan(rail(X)) :- burn(4000), member(X, []), fail.
  plan(ferry(X)) :- burn(6000), member(X, []), fail.
  plan(fly(direct)) :- burn(150).
|}

let test_static_fail_proof () =
  let f = find (db_of plan_program) "plan(P)" in
  check Alcotest.string "plan(P) proven" "independent" (verdict_name f);
  check Alcotest.int "three branches" 3 f.Lint.branches

let test_head_indexing () =
  let db = db_of "color(red). color(green). color(blue)." in
  let f = find db "color(red)" in
  check Alcotest.string "instantiated goal discriminates" "independent"
    (verdict_name f);
  check Alcotest.int "one unifying branch" 1 f.Lint.branches;
  (* No clause head unifies at all: vacuously exclusive. *)
  let f = find db "color(purple)" in
  check Alcotest.string "vacuous" "independent" (verdict_name f)

let test_two_facts_conflict () =
  let f = find (db_of "color(red). color(green). color(blue).") "color(X)" in
  check Alcotest.string "two unifying facts overlap" "conflicting"
    (verdict_name f);
  check Alcotest.bool "witness names the clauses" true
    (String.length (Lint.verdict_detail f.Lint.verdict) > 0)

let test_complementary_guards () =
  let db =
    db_of
      {|
  classify(X, small) :- X < 10, X >= 0.
  classify(X, big) :- X >= 10.
|}
  in
  let f = find db "classify(N, W)" in
  check Alcotest.string "X<10 vs X>=10 complement" "independent"
    (verdict_name f);
  check Alcotest.int "two branches" 2 f.Lint.branches

let test_recursive_unknown () =
  (* Recursive generators genuinely can succeed more than once: the
     analyzer must refuse to certify them. *)
  List.iter
    (fun g ->
      let f = find (Database.with_prelude ()) g in
      check Alcotest.string (g ^ " stays unknown") "unknown" (verdict_name f))
    [ "member(X, [a,b,c])"; "between(1, 5, X)" ]

let test_undefined_unknown () =
  let f = find (Database.with_prelude ()) "no_such_predicate(X)" in
  check Alcotest.string "undefined predicate" "unknown" (verdict_name f)

(* The lint licenses the [?exclusive] fast path on an independent
   verdict only. *)
let exclusive db g =
  match (Lint.check_goal db g).Lint.verdict with
  | Lint.Independent _ -> true
  | Lint.Conflicting _ | Lint.Unknown _ -> false

let test_proven_exclusive () =
  check Alcotest.bool "plan(P) exclusive" true (exclusive (db_of plan_program) (goal "plan(P)"));
  check Alcotest.bool "member not exclusive" false
    (exclusive (Database.with_prelude ()) (goal "member(X, [a,b])"))

(* ---------------- footprint analysis ---------------- *)

let alt ?footprint v = Alternative.make ?footprint (fun _ -> v)

let fp_verdict alts =
  Lint.verdict_name (Lint.check_footprints ~label:"blk" alts).Lint.verdict

let test_footprints_disjoint () =
  let a = alt ~footprint:(Alternative.footprint ~writes:[ (0, 64) ] ()) 1 in
  let b = alt ~footprint:(Alternative.footprint ~writes:[ (64, 64) ] ()) 2 in
  check Alcotest.string "disjoint ranges" "independent" (fp_verdict [ a; b ])

let test_footprints_overlap () =
  let a = alt ~footprint:(Alternative.footprint ~writes:[ (0, 100) ] ()) 1 in
  let b = alt ~footprint:(Alternative.footprint ~writes:[ (99, 8) ] ()) 2 in
  check Alcotest.string "overlapping ranges" "conflicting" (fp_verdict [ a; b ])

let test_footprints_source () =
  let a = alt ~footprint:(Alternative.footprint ~writes_source:true ()) 1 in
  let b = alt ~footprint:(Alternative.footprint ~reads_source:true ()) 2 in
  check Alcotest.string "both touch the source" "conflicting"
    (fp_verdict [ a; b ])

let test_footprints_endpoint () =
  let a = alt ~footprint:(Alternative.footprint ~endpoints:[ "db" ] ()) 1 in
  let b = alt ~footprint:(Alternative.footprint ~endpoints:[ "db" ] ()) 2 in
  check Alcotest.string "shared endpoint" "conflicting" (fp_verdict [ a; b ])

let test_footprints_undeclared () =
  let a = alt ~footprint:(Alternative.footprint ()) 1 in
  let b = alt 2 in
  check Alcotest.string "undeclared is unknown" "unknown" (fp_verdict [ a; b ]);
  check Alcotest.string "all pure is independent" "independent"
    (fp_verdict [ alt ~footprint:(Alternative.footprint ()) 1; alt ~footprint:(Alternative.footprint ()) 2 ])

(* ---------------- exit codes and JSON ---------------- *)

let test_exit_codes () =
  let ind = find (db_of plan_program) "plan(P)" in
  let unk = find (Database.with_prelude ()) "member(X, [a])" in
  let con = find (db_of "p(1). p(2).") "p(X)" in
  check Alcotest.int "all independent" 0 (Lint.exit_code [ ind ]);
  check Alcotest.int "unknown" Report.code_lint_unknown
    (Lint.exit_code [ ind; unk ]);
  check Alcotest.int "conflict dominates" Report.code_lint_conflict
    (Lint.exit_code [ ind; unk; con ]);
  check Alcotest.int "empty is clean" 0 (Lint.exit_code [])

let test_json_shape () =
  let j = Lint.finding_to_json (find (db_of plan_program) "plan(P)") in
  List.iter
    (fun key ->
      check Alcotest.bool (Printf.sprintf "json has %s" key) true
        (let re = Printf.sprintf "\"%s\"" key in
         let rec contains i =
           i + String.length re <= String.length j
           && (String.sub j i (String.length re) = re || contains (i + 1))
         in
         contains 0))
    [ "target"; "kind"; "branches"; "verdict"; "detail" ]

(* ---------------- consensus-elision fast path ---------------- *)

let consensus_policy =
  {
    Concurrent.default_policy with
    Concurrent.sync =
      Concurrent.Consensus
        { nodes = 3; crashed = []; vote_delay = 0.0002; reply_timeout = 0.05 };
  }

let race_block ~exclusive =
  let eng = Engine.create ~seed:7 () in
  let alts =
    [
      Alternative.make ~name:"fails" (fun ctx ->
          Engine.delay ctx 0.001;
          raise (Alternative.Failed "no"));
      Alternative.make ~name:"wins" (fun ctx ->
          Engine.delay ctx 0.002;
          42);
    ]
  in
  Concurrent.run_toplevel eng ~policy:consensus_policy ~exclusive alts

let test_elision_same_winner () =
  let voted = race_block ~exclusive:false in
  let elided = race_block ~exclusive:true in
  (match (voted.Concurrent.outcome, elided.Concurrent.outcome) with
  | ( Alt_block.Selected { index = i1; value = v1 },
      Alt_block.Selected { index = i2; value = v2 } ) ->
    check Alcotest.int "same winner index" i1 i2;
    check Alcotest.int "same value" v1 v2
  | _ -> Alcotest.fail "expected Selected from both paths");
  check Alcotest.bool "consensus path votes" true
    (voted.Concurrent.sync_messages > 0);
  check Alcotest.int "elided path sends no votes" 0
    elided.Concurrent.sync_messages;
  check Alcotest.bool "elision saves synchronisation time" true
    (elided.Concurrent.elapsed <= voted.Concurrent.elapsed)

let test_or_parallel_elision () =
  let db = db_of plan_program in
  let g = goal "plan(P)" in
  let exclusive = exclusive db g in
  check Alcotest.bool "lint licenses the fast path" true exclusive;
  let voted = Or_parallel.solve_sim ~policy:consensus_policy db g in
  let elided = Or_parallel.solve_sim ~policy:consensus_policy ~exclusive db g in
  check
    Alcotest.(option int)
    "same winning branch" voted.Or_parallel.winner_branch
    elided.Or_parallel.winner_branch;
  check Alcotest.bool "same solution" true
    (voted.Or_parallel.first_solution = elided.Or_parallel.first_solution);
  check Alcotest.bool "elision is not slower" true
    (elided.Or_parallel.par_time <= voted.Or_parallel.par_time)

let () =
  Alcotest.run "lint"
    [
      ( "or-branches",
        [
          Alcotest.test_case "static-fail proof" `Quick test_static_fail_proof;
          Alcotest.test_case "head indexing" `Quick test_head_indexing;
          Alcotest.test_case "two facts conflict" `Quick test_two_facts_conflict;
          Alcotest.test_case "complementary guards" `Quick
            test_complementary_guards;
          Alcotest.test_case "recursive stays unknown" `Quick
            test_recursive_unknown;
          Alcotest.test_case "undefined stays unknown" `Quick
            test_undefined_unknown;
          Alcotest.test_case "proven_exclusive" `Quick test_proven_exclusive;
        ] );
      ( "footprints",
        [
          Alcotest.test_case "disjoint" `Quick test_footprints_disjoint;
          Alcotest.test_case "overlap" `Quick test_footprints_overlap;
          Alcotest.test_case "source" `Quick test_footprints_source;
          Alcotest.test_case "endpoint" `Quick test_footprints_endpoint;
          Alcotest.test_case "undeclared" `Quick test_footprints_undeclared;
        ] );
      ( "reporting",
        [
          Alcotest.test_case "exit codes" `Quick test_exit_codes;
          Alcotest.test_case "json shape" `Quick test_json_shape;
        ] );
      ( "fast-path",
        [
          Alcotest.test_case "same winner, no votes" `Quick
            test_elision_same_winner;
          Alcotest.test_case "or-parallel elision" `Quick
            test_or_parallel_elision;
        ] );
    ]
