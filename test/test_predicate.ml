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

let test_equal () =
  check Alcotest.bool "equal" true (Predicate.equal (pred [ 1 ] [ 2 ]) (pred [ 1 ] [ 2 ]));
  check Alcotest.bool "not equal" false (Predicate.equal (pred [ 1 ] []) (pred [ 2 ] []))

let test_pp () =
  check Alcotest.string "printed" "{+P1 -P2}" (Predicate.to_string (pred [ 1 ] [ 2 ]))

let test_hash_consing () =
  (* The construction route does not matter: every route to the same
     assumptions yields an equal predicate. Only the certain predicate is
     shared physically. *)
  let same name a b = check Alcotest.bool name true (Predicate.equal a b) in
  let target = pred [ 1; 2 ] [ 3 ] in
  same "list order and duplicates" (pred [ 2; 1; 2 ] [ 3 ]) target;
  same "assume route" (Predicate.assume_completes (pred [ 1 ] [ 3 ]) (p 2)) target;
  same "assume route, other order"
    (Predicate.assume_fails (Predicate.assume_completes (pred [ 2 ] []) (p 1)) (p 3))
    target;
  same "conjoin route" (Predicate.conjoin (pred [ 1 ] []) (pred [ 2 ] [ 3 ])) target;
  check Alcotest.bool "empty is unique" true (pred [] [] == Predicate.empty);
  (match Predicate.resolve (pred [ 1 ] []) ~pid:(p 1) ~fate:Predicate.Completed with
  | Predicate.Simplified q -> check Alcotest.bool "resolved to empty" true (q == Predicate.empty)
  | _ -> Alcotest.fail "expected Simplified");
  match Predicate.resolve (pred [ 1; 2 ] []) ~pid:(p 2) ~fate:Predicate.Completed with
  | Predicate.Simplified q -> same "resolve route" q (pred [ 1 ] [])
  | _ -> Alcotest.fail "expected Simplified"

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
  let q = Fate_registry.normalize r (pred [ 1 ] [ 2 ]) in
  check Alcotest.bool "fully resolved" true (Predicate.is_certain q);
  check Alcotest.bool "dead" true
    (Fate_registry.normalize r (pred [ 2 ] []) == Predicate.falsified);
  let q = Fate_registry.normalize r (pred [ 1; 5 ] []) in
  check Alcotest.bool "live" true (q != Predicate.falsified);
  check Alcotest.bool "residual assumption" true (Predicate.mem_completes q (p 5));
  check Alcotest.int "only one left" 1 (Predicate.cardinal q);
  (* The sentinel is never certain, and an undecided predicate comes back
     as itself. *)
  check Alcotest.bool "falsified is not certain" false
    (Predicate.is_certain Predicate.falsified);
  let u = pred [ 7 ] [ 8 ] in
  check Alcotest.bool "undecided is itself" true (Fate_registry.normalize r u == u)

(* A recorded fate decides over the predicate; without one, the
   normalised predicate does. *)
let test_registry_resolution () =
  let r = Fate_registry.create () in
  Fate_registry.record r (p 1) Predicate.Completed;
  Fate_registry.record r (p 2) Predicate.Failed;
  let case name want pid c f =
    check Alcotest.bool name true
      (Fate_registry.resolution r ~pid:(p pid) (pred c f) = want)
  in
  case "recorded completed" `Certain 1 [ 5 ] [];
  case "recorded failed" `Dead 2 [] [];
  case "certain predicate" `Certain 7 [] [];
  case "fully resolved" `Certain 7 [ 1 ] [ 2 ];
  case "falsified" `Dead 7 [ 2 ] [];
  case "residue" `Pending 7 [ 1; 5 ] []

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
  (* [implies]/[conflicts] must agree with a from-scratch check on the pid
     sets, and give the same answer when asked twice. *)
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

(* [Predicate.equal] is an int-array walk; it must agree with structural
   equality, which it replaced. [b'] rebuilds [b] through [make], so an
   equal pair that is not physically equal occurs on every draw, and the
   small pid ranges make equal random pairs common too. *)
let prop_equal_is_structural =
  QCheck.Test.make ~name:"equal agrees with structural (=)" ~count:2000
    (QCheck.pair gen_pred gen_pred) (fun (a, b) ->
      let b' =
        Predicate.make
          ~must_complete:(Pid.Set.elements (Predicate.must_complete b))
          ~must_fail:(Pid.Set.elements (Predicate.must_fail b))
      in
      let agrees x y = Predicate.equal x y = (x = y) && Predicate.equal y x = (y = x) in
      agrees a b && agrees a b' && agrees b b' && Predicate.equal b b')

(* [Predicate.resolve] decides one pid with two binary searches; its
   definition is [resolve_all] with a fate function that decides that pid
   alone. Pids 20 and 21 occur in no generated predicate. *)
let prop_resolve_is_one_pid_resolve_all =
  let gen =
    QCheck.triple gen_pred (QCheck.int_bound 21)
      (QCheck.make ~print:(function Predicate.Completed -> "completed" | Predicate.Failed -> "failed")
         QCheck.Gen.(oneofl [ Predicate.Completed; Predicate.Failed ]))
  in
  QCheck.Test.make ~name:"resolve agrees with resolve_all on a one-pid fate"
    ~count:2000 gen (fun (q, n, fate) ->
      let pid = Pid.of_int n in
      let one = Predicate.resolve q ~pid ~fate in
      let all =
        Predicate.resolve_all q ~fate:(fun p -> if Pid.equal p pid then Some fate else None)
      in
      match (one, all) with
      | Predicate.Unchanged, Predicate.Unchanged | Predicate.Falsified, Predicate.Falsified ->
        true
      | Predicate.Simplified a, Predicate.Simplified b ->
        (Predicate.equal a b && Predicate.is_certain a = (a == Predicate.empty))
        || QCheck.Test.fail_reportf "resolve %s, resolve_all %s" (Predicate.to_string a)
             (Predicate.to_string b)
      | _ -> QCheck.Test.fail_report "different resolutions")

(* [Predicate.assume_alternative] against its definition: [assume_completes]
   of [self], then [assume_fails] of each rival but [self] in turn. The
   parents already hold assumptions over the same dozen pids, so a self or
   rival already assumed either way, and a conflict on either, all occur;
   a conflict must raise the very [Invalid_argument] the fold raises. *)
let gen_alternative_case =
  QCheck.Gen.(
    let pid = int_range 0 11 in
    let* completes = list_size (int_range 0 4) pid in
    let* fails = list_size (int_range 0 4) pid in
    let* self = pid in
    let* rivals = list_size (int_range 0 6) pid in
    return
      ( List.sort_uniq compare completes,
        List.filter (fun x -> not (List.mem x completes)) (List.sort_uniq compare fails),
        self,
        List.sort_uniq compare rivals ))

let prop_assume_alternative_model =
  let ints l = String.concat "," (List.map string_of_int l) in
  let print (c, f, s, r) = Printf.sprintf "+[%s] -[%s] self %d rivals [%s]" (ints c) (ints f) s (ints r) in
  let outcome f = match f () with q -> Ok q | exception Invalid_argument m -> Error m in
  QCheck.Test.make ~name:"assume_alternative agrees with a fold of assume_completes/assume_fails"
    ~count:2000 (QCheck.make ~print gen_alternative_case) (fun (c, f, s, r) ->
      let parent =
        Predicate.make ~must_complete:(List.map Pid.of_int c) ~must_fail:(List.map Pid.of_int f)
      in
      let self = Pid.of_int s and rivals = List.map Pid.of_int r in
      let fold () =
        List.fold_left
          (fun q x -> if Pid.equal x self then q else Predicate.assume_fails q x)
          (Predicate.assume_completes parent self)
          rivals
      in
      let one_step () = Predicate.assume_alternative parent ~self ~rivals:(Array.of_list rivals) in
      match (outcome fold, outcome one_step) with
      | Ok a, Ok b ->
        Predicate.equal a b && Predicate.equal b a
        || QCheck.Test.fail_reportf "fold %s, one step %s" (Predicate.to_string a)
             (Predicate.to_string b)
      | Error a, Error b ->
        String.equal a b || QCheck.Test.fail_reportf "fold raised %S, one step %S" a b
      | Ok a, Error b ->
        QCheck.Test.fail_reportf "fold gave %s, one step raised %S" (Predicate.to_string a) b
      | Error a, Ok b ->
        QCheck.Test.fail_reportf "fold raised %S, one step gave %s" a (Predicate.to_string b))

let test_assume_alternative_rejects_unsorted () =
  let p = Pid.of_int in
  Alcotest.check_raises "descending rivals"
    (Invalid_argument "Predicate.assume_alternative: rivals not strictly ascending") (fun () ->
      ignore (Predicate.assume_alternative Predicate.empty ~self:(p 0) ~rivals:[| p 2; p 1 |]));
  Alcotest.check_raises "duplicate rival"
    (Invalid_argument "Predicate.assume_alternative: rivals not strictly ascending") (fun () ->
      ignore (Predicate.assume_alternative Predicate.empty ~self:(p 0) ~rivals:[| p 1; p 1 |]))

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
      let n = Fate_registry.normalize r q in
      match reference with
      | `Dead -> n == Predicate.falsified
      | `Live b -> n != Predicate.falsified && Predicate.equal n b)

(* ---------------- model: Predicate against a pair of pid sets ----------------

   Random programs build a family of predicates from [empty] with [make],
   [assume_*], [conjoin], [resolve] and [resolve_all], and replay every
   step on a reference that is a plain [(completes, fails)] pair of
   [Pid.Set]s. Both sides must raise on the same steps; every value built
   must agree with its reference on [cardinal], [mem_*], [must_*],
   [is_certain] and [to_string], and every pair of values on [implies],
   [conflicts], [equal] and the sign of [compare] (the reference orders
   by [Pid.Set.compare] on completes, then on fails). Pids come from a
   small universe, where prefixes, overlaps and conflicts are common, or
   from 0..4000, where the arrays stay sparse. *)

type ref_pred = { rc : Pid.Set.t; rf : Pid.Set.t }

type op =
  | Make of int list * int list
  | Assume of Predicate.fate * int * int  (* side, value, pid *)
  | Conjoin of int * int
  | Resolve of int * int * Predicate.fate
  | Resolve_all of int * (int * Predicate.fate) list

let show_fate = function Predicate.Completed -> "ok" | Predicate.Failed -> "fail"

let show_ints l = "[" ^ String.concat ";" (List.map string_of_int l) ^ "]"

let show_op = function
  | Make (c, f) -> Printf.sprintf "make %s %s" (show_ints c) (show_ints f)
  | Assume (side, i, x) -> Printf.sprintf "assume_%s #%d %d" (show_fate side) i x
  | Conjoin (i, j) -> Printf.sprintf "conjoin #%d #%d" i j
  | Resolve (i, x, f) -> Printf.sprintf "resolve #%d %d=%s" i x (show_fate f)
  | Resolve_all (i, fs) ->
    Printf.sprintf "resolve_all #%d {%s}" i
      (String.concat " "
         (List.map (fun (x, f) -> Printf.sprintf "%d=%s" x (show_fate f)) fs))

let set_of l = Pid.Set.of_list (List.map Pid.of_int l)

let ref_to_string r =
  let side sign s = List.map (fun q -> sign ^ Pid.to_string q) (Pid.Set.elements s) in
  "{" ^ String.concat " " (side "+" r.rc @ side "-" r.rf) ^ "}"

let ref_implies r s = Pid.Set.subset s.rc r.rc && Pid.Set.subset s.rf r.rf

let ref_conflicts r s =
  not (Pid.Set.disjoint r.rc s.rf && Pid.Set.disjoint r.rf s.rc)

let ref_equal a b = Pid.Set.equal a.rc b.rc && Pid.Set.equal a.rf b.rf

(* The reference outcome of one step; [`Raises] stands for
   [Invalid_argument]. *)
let ref_step values = function
  | Make (c, f) ->
    let rc = set_of c and rf = set_of f in
    if Pid.Set.disjoint rc rf then `Value { rc; rf } else `Raises
  | Assume (Predicate.Completed, i, x) ->
    let r = values.(i) and x = Pid.of_int x in
    if Pid.Set.mem x r.rf then `Raises else `Value { r with rc = Pid.Set.add x r.rc }
  | Assume (Predicate.Failed, i, x) ->
    let r = values.(i) and x = Pid.of_int x in
    if Pid.Set.mem x r.rc then `Raises else `Value { r with rf = Pid.Set.add x r.rf }
  | Conjoin (i, j) ->
    let a = values.(i) and b = values.(j) in
    if ref_conflicts a b then `Raises
    else `Value { rc = Pid.Set.union a.rc b.rc; rf = Pid.Set.union a.rf b.rf }
  | Resolve (i, x, fate) -> (
    let r = values.(i) and x = Pid.of_int x in
    let held, other =
      match fate with
      | Predicate.Completed -> (r.rc, r.rf)
      | Predicate.Failed -> (r.rf, r.rc)
    in
    if Pid.Set.mem x other then `Falsified
    else if not (Pid.Set.mem x held) then `Unchanged
    else
      match fate with
      | Predicate.Completed -> `Simplified { r with rc = Pid.Set.remove x r.rc }
      | Predicate.Failed -> `Simplified { r with rf = Pid.Set.remove x r.rf })
  | Resolve_all (i, fates) ->
    let r = values.(i) in
    let fate q = List.assoc_opt (Pid.to_int q) fates in
    let against assumed q = match fate q with Some f -> f <> assumed | None -> false in
    if Pid.Set.exists (against Predicate.Completed) r.rc
       || Pid.Set.exists (against Predicate.Failed) r.rf
    then `Falsified
    else
      let undecided = Pid.Set.filter (fun q -> fate q = None) in
      let r' = { rc = undecided r.rc; rf = undecided r.rf } in
      if Pid.Set.equal r'.rc r.rc && Pid.Set.equal r'.rf r.rf then `Unchanged
      else `Simplified r'

let real_step values op =
  let pids = List.map Pid.of_int in
  let value f = match f () with v -> `Value v | exception Invalid_argument _ -> `Raises in
  let resolution = function
    | Predicate.Unchanged -> `Unchanged
    | Predicate.Simplified q -> `Simplified q
    | Predicate.Falsified -> `Falsified
  in
  match op with
  | Make (c, f) -> value (fun () -> Predicate.make ~must_complete:(pids c) ~must_fail:(pids f))
  | Assume (Predicate.Completed, i, x) ->
    value (fun () -> Predicate.assume_completes values.(i) (Pid.of_int x))
  | Assume (Predicate.Failed, i, x) ->
    value (fun () -> Predicate.assume_fails values.(i) (Pid.of_int x))
  | Conjoin (i, j) -> value (fun () -> Predicate.conjoin values.(i) values.(j))
  | Resolve (i, x, fate) -> resolution (Predicate.resolve values.(i) ~pid:(Pid.of_int x) ~fate)
  | Resolve_all (i, fates) ->
    resolution
      (Predicate.resolve_all values.(i) ~fate:(fun q -> List.assoc_opt (Pid.to_int q) fates))

(* Why [q] disagrees with its reference [r], if it does. *)
let disagreement ~universe q r =
  let probe = Pid.Set.elements (Pid.Set.union r.rc r.rf) @ List.map Pid.of_int universe in
  if Predicate.cardinal q <> Pid.Set.cardinal r.rc + Pid.Set.cardinal r.rf then
    Some "cardinal"
  else if Predicate.is_certain q <> (Pid.Set.is_empty r.rc && Pid.Set.is_empty r.rf) then
    Some "is_certain"
  else if not (Pid.Set.equal (Predicate.must_complete q) r.rc) then Some "must_complete"
  else if not (Pid.Set.equal (Predicate.must_fail q) r.rf) then Some "must_fail"
  else if Predicate.to_string q <> ref_to_string r then Some "to_string"
  else
    List.find_map
      (fun x ->
        if Predicate.mem_completes q x <> Pid.Set.mem x r.rc then
          Some ("mem_completes " ^ Pid.to_string x)
        else if Predicate.mem_fails q x <> Pid.Set.mem x r.rf then
          Some ("mem_fails " ^ Pid.to_string x)
        else None)
      probe

let pair_disagreement (a, ra) (b, rb) =
  if Predicate.implies a b <> ref_implies ra rb then Some "implies"
  else if Predicate.conflicts a b <> ref_conflicts ra rb then Some "conflicts"
  else if Predicate.equal a b <> ref_equal ra rb then Some "equal"
  else None

let run_model (universe, ops) =
  let fail fmt = QCheck.Test.fail_reportf fmt in
  let values = ref [| (Predicate.empty, { rc = Pid.Set.empty; rf = Pid.Set.empty }) |] in
  let add (q, r) =
    (match disagreement ~universe q r with
    | Some why -> fail "%s: %s vs reference %s" why (Predicate.to_string q) (ref_to_string r)
    | None -> ());
    Array.iter
      (fun other ->
        List.iter
          (fun (x, y) ->
            match pair_disagreement x y with
            | Some why ->
              fail "%s %s %s" why (Predicate.to_string (fst x)) (Predicate.to_string (fst y))
            | None -> ())
          [ ((q, r), other); (other, (q, r)) ])
      !values;
    values := Array.append !values [| (q, r) |]
  in
  List.iter
    (fun op ->
      let n = Array.length !values in
      let op =
        match op with
        | Make _ -> op
        | Assume (side, i, x) -> Assume (side, i mod n, x)
        | Conjoin (i, j) -> Conjoin (i mod n, j mod n)
        | Resolve (i, x, f) -> Resolve (i mod n, x, f)
        | Resolve_all (i, fs) -> Resolve_all (i mod n, fs)
      in
      match (real_step (Array.map fst !values) op, ref_step (Array.map snd !values) op) with
      | `Raises, `Raises | `Unchanged, `Unchanged | `Falsified, `Falsified -> ()
      | `Value q, `Value r | `Simplified q, `Simplified r -> add (q, r)
      | _ -> fail "%s: outcomes differ" (show_op op))
    ops;
  true

let arb_model =
  let open QCheck.Gen in
  let program universe =
    let pid = oneofl universe in
    let pids = list_size (int_range 0 5) pid in
    let fate = oneofl [ Predicate.Completed; Predicate.Failed ] in
    let idx = int_bound 40 in
    let op =
      frequency
        [
          (3, map2 (fun c f -> Make (c, f)) pids pids);
          (6, map3 (fun s i x -> Assume (s, i, x)) fate idx pid);
          (3, map2 (fun i j -> Conjoin (i, j)) idx idx);
          (3, map3 (fun i x f -> Resolve (i, x, f)) idx pid fate);
          (2, map2 (fun i fs -> Resolve_all (i, fs)) idx
                (list_size (int_range 0 6) (pair pid fate)));
        ]
    in
    map (fun ops -> (universe, ops)) (list_size (int_range 1 40) op)
  in
  let small = List.init 8 Fun.id in
  let large =
    map (fun xs -> List.sort_uniq compare xs) (list_size (int_range 1 12) (int_range 0 4000))
  in
  QCheck.make
    ~print:(fun (u, ops) ->
      Printf.sprintf "pids %s: %s" (show_ints u) (String.concat "; " (List.map show_op ops)))
    (oneof [ program small; large >>= program ])

let prop_predicate_model =
  QCheck.Test.make ~name:"random ops agree with a pid-set-pair model" ~count:500
    arb_model run_model

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
          Alcotest.test_case "equal" `Quick test_equal;
          Alcotest.test_case "hash-consing" `Quick test_hash_consing;
          Alcotest.test_case "printing" `Quick test_pp;
          Alcotest.test_case "assume_alternative rejects unsorted rivals" `Quick
            test_assume_alternative_rejects_unsorted;
        ] );
      ( "fate_registry",
        [
          Alcotest.test_case "record and query" `Quick test_registry_record_and_fate;
          Alcotest.test_case "normalize" `Quick test_registry_normalize;
          Alcotest.test_case "resolution" `Quick test_registry_resolution;
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
            prop_equal_is_structural;
            prop_resolve_shrinks;
            prop_resolve_is_one_pid_resolve_all;
            prop_predicate_model;
            prop_assume_alternative_model;
          ] );
    ]
