(* Tests for predicates (section 3.3 / 3.4.2 semantics) and the fate
   registry. *)

let check = Alcotest.check
let p n = Pid.of_int n

let pred completes fails =
  Predicate.make ~must_complete:(List.map p completes)
    ~must_fail:(List.map p fails)

let test_empty_certain () =
  check Alcotest.bool "empty is certain" true (Predicate.is_certain Predicate.empty);
  check Alcotest.int "cardinal" 0 (Predicate.cardinal Predicate.empty)

let test_make_inconsistent () =
  Alcotest.check_raises "inconsistent" (Invalid_argument "Predicate.make: inconsistent")
    (fun () -> ignore (pred [ 1 ] [ 1 ]))

let test_assume () =
  let q = Predicate.assume_completes Predicate.empty (p 1) in
  check Alcotest.bool "mem completes" true (Predicate.mem_completes q (p 1));
  check Alcotest.bool "not certain" false (Predicate.is_certain q);
  let q = Predicate.assume_fails q (p 2) in
  check Alcotest.bool "mem fails" true (Predicate.mem_fails q (p 2));
  check Alcotest.int "cardinal 2" 2 (Predicate.cardinal q);
  Alcotest.check_raises "conflicting assumption"
    (Invalid_argument "Predicate.assume_fails: pid already assumed to complete")
    (fun () -> ignore (Predicate.assume_fails q (p 1)));
  Alcotest.check_raises "conflicting assumption 2"
    (Invalid_argument "Predicate.assume_completes: pid already assumed to fail")
    (fun () -> ignore (Predicate.assume_completes q (p 2)))

let test_implies () =
  let r = pred [ 1; 2 ] [ 3 ] in
  check Alcotest.bool "subset implied" true (Predicate.implies r (pred [ 1 ] []));
  check Alcotest.bool "exact implied" true (Predicate.implies r (pred [ 1; 2 ] [ 3 ]));
  check Alcotest.bool "empty implied" true (Predicate.implies r Predicate.empty);
  check Alcotest.bool "superset not implied" false
    (Predicate.implies r (pred [ 1; 2; 4 ] [ 3 ]));
  check Alcotest.bool "fails side checked" false
    (Predicate.implies r (pred [] [ 5 ]))

let test_conflicts () =
  let r = pred [ 1 ] [ 2 ] in
  check Alcotest.bool "complete vs fail" true (Predicate.conflicts r (pred [] [ 1 ]));
  check Alcotest.bool "fail vs complete" true (Predicate.conflicts r (pred [ 2 ] []));
  check Alcotest.bool "disjoint no conflict" false
    (Predicate.conflicts r (pred [ 3 ] [ 4 ]));
  check Alcotest.bool "agreement no conflict" false
    (Predicate.conflicts r (pred [ 1 ] [ 2 ]))

let test_conjoin () =
  let a = pred [ 1 ] [ 2 ] and b = pred [ 3 ] [ 4 ] in
  let c = Predicate.conjoin a b in
  check Alcotest.int "union" 4 (Predicate.cardinal c);
  check Alcotest.bool "has both" true
    (Predicate.mem_completes c (p 1) && Predicate.mem_completes c (p 3));
  Alcotest.check_raises "conjoin conflict"
    (Invalid_argument "Predicate.conjoin: conflicting predicates") (fun () ->
      ignore (Predicate.conjoin a (pred [ 2 ] [])))

let test_resolve () =
  let q = pred [ 1 ] [ 2 ] in
  (match Predicate.resolve q ~pid:(p 1) ~fate:Predicate.Completed with
  | Predicate.Simplified q' ->
    check Alcotest.bool "assumption removed" false (Predicate.mem_completes q' (p 1))
  | _ -> Alcotest.fail "expected Simplified");
  (match Predicate.resolve q ~pid:(p 1) ~fate:Predicate.Failed with
  | Predicate.Falsified -> ()
  | _ -> Alcotest.fail "expected Falsified");
  (match Predicate.resolve q ~pid:(p 2) ~fate:Predicate.Failed with
  | Predicate.Simplified q' ->
    check Alcotest.bool "fail assumption removed" false (Predicate.mem_fails q' (p 2))
  | _ -> Alcotest.fail "expected Simplified");
  (match Predicate.resolve q ~pid:(p 2) ~fate:Predicate.Completed with
  | Predicate.Falsified -> ()
  | _ -> Alcotest.fail "expected Falsified");
  (match Predicate.resolve q ~pid:(p 9) ~fate:Predicate.Completed with
  | Predicate.Unchanged -> ()
  | _ -> Alcotest.fail "expected Unchanged")

let test_equal_compare () =
  check Alcotest.bool "equal" true (Predicate.equal (pred [ 1 ] [ 2 ]) (pred [ 1 ] [ 2 ]));
  check Alcotest.bool "not equal" false (Predicate.equal (pred [ 1 ] []) (pred [ 2 ] []));
  check Alcotest.int "compare self" 0 (Predicate.compare (pred [ 1 ] [ 2 ]) (pred [ 1 ] [ 2 ]))

let test_pp () =
  check Alcotest.string "printed" "{+P1 -P2}" (Predicate.to_string (pred [ 1 ] [ 2 ]))

let test_hash_consing () =
  (* Predicates are interned: structural equality coincides with physical
     equality, regardless of construction order or route. *)
  check Alcotest.bool "same lists, same box" true
    (pred [ 1; 2 ] [ 3 ] == pred [ 2; 1 ] [ 3 ]);
  check Alcotest.bool "assume route reaches the same box" true
    (Predicate.assume_completes (pred [ 1 ] [ 3 ]) (p 2) == pred [ 1; 2 ] [ 3 ]);
  check Alcotest.bool "conjoin route reaches the same box" true
    (Predicate.conjoin (pred [ 1 ] []) (pred [ 2 ] [ 3 ]) == pred [ 1; 2 ] [ 3 ]);
  check Alcotest.bool "empty is unique" true
    (pred [] [] == Predicate.empty);
  (* [resolve] re-interns its result. *)
  (match Predicate.resolve (pred [ 1; 2 ] []) ~pid:(p 2) ~fate:Predicate.Completed with
  | Predicate.Simplified q -> check Alcotest.bool "resolved box" true (q == pred [ 1 ] [])
  | _ -> Alcotest.fail "expected Simplified")

(* ---------------- Fate_registry ---------------- *)

let test_registry_record_and_fate () =
  let r = Fate_registry.create () in
  check Alcotest.bool "unknown" true (Fate_registry.fate r (p 1) = None);
  Fate_registry.record r (p 1) Predicate.Completed;
  check Alcotest.bool "recorded" true
    (Fate_registry.fate r (p 1) = Some Predicate.Completed);
  Fate_registry.record r (p 1) Predicate.Completed;
  Alcotest.check_raises "fates are immutable"
    (Invalid_argument "Fate_registry.record: fate already decided") (fun () ->
      Fate_registry.record r (p 1) Predicate.Failed);
  check Alcotest.int "decided" 1 (Fate_registry.decided r)

let test_registry_normalize () =
  let r = Fate_registry.create () in
  Fate_registry.record r (p 1) Predicate.Completed;
  Fate_registry.record r (p 2) Predicate.Failed;
  (match Fate_registry.normalize r (pred [ 1 ] [ 2 ]) with
  | `Live q -> check Alcotest.bool "fully resolved" true (Predicate.is_certain q)
  | `Dead -> Alcotest.fail "should be live");
  (match Fate_registry.normalize r (pred [ 2 ] []) with
  | `Dead -> ()
  | `Live _ -> Alcotest.fail "should be dead");
  (match Fate_registry.normalize r (pred [ 1; 5 ] []) with
  | `Live q ->
    check Alcotest.bool "residual assumption" true (Predicate.mem_completes q (p 5));
    check Alcotest.int "only one left" 1 (Predicate.cardinal q)
  | `Dead -> Alcotest.fail "should be live")

(* ---------------- properties ---------------- *)

let gen_pred =
  QCheck.make
    ~print:(fun q -> Predicate.to_string q)
    QCheck.Gen.(
      let* completes = list_size (int_range 0 5) (int_range 0 9) in
      let* fails = list_size (int_range 0 5) (int_range 10 19) in
      return
        (Predicate.make
           ~must_complete:(List.map Pid.of_int completes)
           ~must_fail:(List.map Pid.of_int fails)))

let prop_memoised_implies_conflicts =
  (* The memo caches must agree with a from-scratch structural check, on
     first use and on the cached second use. *)
  let subset a b = Pid.Set.subset a b in
  QCheck.Test.make ~name:"memoised implies/conflicts match structural truth"
    ~count:500 (QCheck.pair gen_pred gen_pred) (fun (r, s) ->
      let naive_implies =
        subset (Predicate.must_complete s) (Predicate.must_complete r)
        && subset (Predicate.must_fail s) (Predicate.must_fail r)
      in
      let naive_conflicts =
        (not
           (Pid.Set.is_empty
              (Pid.Set.inter (Predicate.must_complete r) (Predicate.must_fail s))))
        || not
             (Pid.Set.is_empty
                (Pid.Set.inter (Predicate.must_fail r) (Predicate.must_complete s)))
      in
      Predicate.implies r s = naive_implies
      && Predicate.implies r s = naive_implies
      && Predicate.conflicts r s = naive_conflicts
      && Predicate.conflicts r s = naive_conflicts)

let prop_implies_reflexive =
  QCheck.Test.make ~name:"implies is reflexive" ~count:300 gen_pred (fun q ->
      Predicate.implies q q)

let prop_conjoin_implies_both =
  QCheck.Test.make ~name:"conjoin implies both conjuncts" ~count:300
    (QCheck.pair gen_pred gen_pred) (fun (a, b) ->
      if Predicate.conflicts a b then true
      else begin
        let c = Predicate.conjoin a b in
        Predicate.implies c a && Predicate.implies c b
      end)

let prop_conflicts_symmetric =
  QCheck.Test.make ~name:"conflicts is symmetric" ~count:300
    (QCheck.pair gen_pred gen_pred) (fun (a, b) ->
      Predicate.conflicts a b = Predicate.conflicts b a)

let prop_empty_is_unit =
  QCheck.Test.make ~name:"empty is a unit for conjoin" ~count:300 gen_pred
    (fun q -> Predicate.equal (Predicate.conjoin q Predicate.empty) q)

let prop_resolve_shrinks =
  QCheck.Test.make ~name:"resolve never grows the predicate" ~count:300
    (QCheck.pair gen_pred (QCheck.int_bound 19)) (fun (q, n) ->
      match Predicate.resolve q ~pid:(Pid.of_int n) ~fate:Predicate.Completed with
      | Predicate.Unchanged -> true
      | Predicate.Falsified -> true
      | Predicate.Simplified q' -> Predicate.cardinal q' = Predicate.cardinal q - 1)

(* [Fate_registry.normalize] against the definition: fold
   [Predicate.resolve] over every decided pid. The pid universe sits at a
   random base so the registry's byte array has to grow past its initial
   size; recording a pid's other fate must raise, recording its own fate
   again must not. *)
let gen_registry_case =
  QCheck.Gen.(
    let* base = oneofl [ 0; 60; 300 ] in
    let pid = map (fun i -> Pid.of_int (base + i)) (int_range 0 11) in
    let* roles = list_repeat 12 (int_range 0 2) in
    let completes = ref [] and fails = ref [] in
    List.iteri
      (fun i r ->
        let q = Pid.of_int (base + i) in
        if r = 1 then completes := q :: !completes
        else if r = 2 then fails := q :: !fails)
      roles;
    let q = Predicate.make ~must_complete:!completes ~must_fail:!fails in
    let* fates =
      list_size (int_range 0 14)
        (pair pid (oneofl [ Predicate.Completed; Predicate.Failed ]))
    in
    return (q, fates))

let prop_registry_model =
  let print (q, fates) =
    Printf.sprintf "%s with %s" (Predicate.to_string q)
      (String.concat " "
         (List.map
            (fun (pid, f) ->
              Pid.to_string pid ^ if f = Predicate.Completed then "=ok" else "=fail")
            fates))
  in
  QCheck.Test.make ~name:"normalize agrees with a fold of resolve" ~count:500
    (QCheck.make ~print gen_registry_case) (fun (q, fates) ->
      let r = Fate_registry.create () in
      let model = Hashtbl.create 16 in
      let recorded_ok =
        List.for_all
          (fun (pid, f) ->
            match Hashtbl.find_opt model pid with
            | Some f' when f' <> f -> (
              match Fate_registry.record r pid f with
              | () -> false
              | exception Invalid_argument _ -> true)
            | _ ->
              Hashtbl.replace model pid f;
              Fate_registry.record r pid f;
              Fate_registry.fate r pid = Some f)
          fates
      in
      let reference =
        Hashtbl.fold (fun pid f acc -> (pid, f) :: acc) model []
        |> List.sort compare
        |> List.fold_left
             (fun acc (pid, fate) ->
               match acc with
               | `Dead -> `Dead
               | `Live p -> (
                 match Predicate.resolve p ~pid ~fate with
                 | Predicate.Unchanged -> `Live p
                 | Predicate.Simplified p' -> `Live p'
                 | Predicate.Falsified -> `Dead))
             (`Live q)
      in
      recorded_ok
      && Fate_registry.decided r = Hashtbl.length model
      &&
      match (Fate_registry.normalize r q, reference) with
      | `Dead, `Dead -> true
      | `Live a, `Live b -> a == b
      | _ -> false)

let () =
  Alcotest.run "predicate"
    [
      ( "predicate",
        [
          Alcotest.test_case "empty is certain" `Quick test_empty_certain;
          Alcotest.test_case "make rejects inconsistency" `Quick test_make_inconsistent;
          Alcotest.test_case "assume" `Quick test_assume;
          Alcotest.test_case "implies" `Quick test_implies;
          Alcotest.test_case "conflicts" `Quick test_conflicts;
          Alcotest.test_case "conjoin" `Quick test_conjoin;
          Alcotest.test_case "resolve" `Quick test_resolve;
          Alcotest.test_case "equal/compare" `Quick test_equal_compare;
          Alcotest.test_case "hash-consing" `Quick test_hash_consing;
          Alcotest.test_case "printing" `Quick test_pp;
        ] );
      ( "fate_registry",
        [
          Alcotest.test_case "record and query" `Quick test_registry_record_and_fate;
          Alcotest.test_case "normalize" `Quick test_registry_normalize;
          QCheck_alcotest.to_alcotest prop_registry_model;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_memoised_implies_conflicts;
            prop_implies_reflexive;
            prop_conjoin_implies_both;
            prop_conflicts_symmetric;
            prop_empty_is_unit;
            prop_resolve_shrinks;
          ] );
    ]
