(* Cross-library integration tests: alternative blocks over sources,
   recovery blocks with consensus and fault injection, speculative IPC
   interacting with block execution, Prolog end-to-end. *)

let check = Alcotest.check

let in_process ?space eng f =
  let result = ref None in
  let pid =
    Engine.spawn eng ?space ~cloneable:false ~name:"it-root" (fun ctx ->
        result := Some (f ctx))
  in
  if Option.is_some space then Engine.preserve_space eng pid;
  Engine.run eng;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "root did not complete"

(* Alternatives that write to a teletype: only the winner's output may
   appear, flushed when the block commits. *)
let test_block_gates_source_output () =
  let eng = Engine.create ~trace:false () in
  let tty = Source.create eng ~name:"tty" in
  let speak line cost =
    Alternative.make ~name:line (fun ctx ->
        Source.write ctx tty ("start " ^ line);
        Engine.delay ctx cost;
        Source.write ctx tty ("done " ^ line);
        line)
  in
  let r = in_process eng (fun ctx -> Concurrent.run ctx [ speak "A" 3.; speak "B" 1. ]) in
  (match r.Concurrent.outcome with
  | Alt_block.Selected { value = "B"; _ } -> ()
  | _ -> Alcotest.fail "B must win");
  let lines = List.map (fun (_, _, l) -> l) (Source.output tty) in
  check Alcotest.(list string) "only the winner's lines, in order"
    [ "start B"; "done B" ] lines;
  check Alcotest.bool "loser's lines discarded" true (Source.discarded tty > 0)

(* A full distributed recovery block: faulty primary, consensus sync with a
   crashed voter, source output gated. *)
let test_distributed_recovery_block_end_to_end () =
  let eng = Engine.create ~model:Cost_model.hp_9000_350 ~trace:false () in
  let tty = Source.create eng ~name:"console" in
  let version name cost result =
    Recovery_block.alternate ~name (fun ctx ->
        Source.write ctx tty (name ^ " reporting " ^ string_of_int result);
        Engine.delay ctx cost;
        result)
  in
  let rb =
    Recovery_block.make
      ~acceptance:(fun _ v -> v >= 0)
      [
        Fault.always ~mode:Fault.Wrong ~corrupt:(fun v -> -v)
          (version "primary" 0.1 10);
        version "backup-fast" 0.3 20;
        version "backup-slow" 0.9 30;
      ]
  in
  let policy =
    Recovery_block.distributed_policy ~nodes:5 ~crashed:[ 2 ] ~vote_delay:0.001 ()
  in
  let r = in_process eng (fun ctx -> Recovery_block.run_concurrent ctx ~policy rb) in
  check Alcotest.bool "fast backup accepted" true
    (r.Recovery_block.verdict = `Accepted (1, 20));
  let lines = List.map (fun (_, _, l) -> l) (Source.output tty) in
  check Alcotest.(list string) "only the accepted version spoke"
    [ "backup-fast reporting 20" ] lines

(* Speculative children of an alternative block send messages to an outside
   observer; the observer splits per world and only the winner-consistent
   world survives. *)
let test_block_children_split_observer () =
  let eng = Engine.create ~trace:true () in
  let seen = ref [] in
  let observer =
    Engine.spawn eng ~name:"observer" (fun ctx ->
        let m = Engine.receive ctx () in
        (* Park a little so worlds survive past the sync. *)
        Engine.delay ctx 10.;
        seen := Payload.get_int m.Message.payload :: !seen)
  in
  let speak i cost =
    Alternative.make (fun ctx ->
        Engine.send ctx observer (Payload.int i);
        Engine.delay ctx cost;
        i)
  in
  let r = in_process eng (fun ctx -> Concurrent.run ctx [ speak 1 5.; speak 2 1. ]) in
  (match r.Concurrent.outcome with
  | Alt_block.Selected { value = 2; _ } -> ()
  | _ -> Alcotest.fail "alternative 2 must win");
  check Alcotest.(list int) "observer saw exactly the winner's message" [ 2 ] !seen;
  check Alcotest.bool "a split happened" true
    (Trace.count (Engine.trace eng) ~f:(function Trace.Split _ -> true | _ -> false)
     >= 1)

(* Nested blocks: an alternative that itself runs an alternative block. *)
let test_nested_alternative_blocks () =
  let eng = Engine.create ~trace:false () in
  let inner =
    Alternative.make ~name:"outer-composite" (fun ctx ->
        let r =
          Concurrent.run ctx
            [ Alternative.fixed ~cost:2. "inner-slow"; Alternative.fixed ~cost:0.5 "inner-fast" ]
        in
        match r.Concurrent.outcome with
        | Alt_block.Selected { value; _ } -> value
        | Alt_block.Block_failed _ -> raise (Alternative.Failed "inner failed"))
  in
  let r =
    in_process eng (fun ctx ->
        Concurrent.run ctx [ inner; Alternative.fixed ~cost:3. "outer-direct" ])
  in
  match r.Concurrent.outcome with
  | Alt_block.Selected { value = "inner-fast"; _ } -> ()
  | Alt_block.Selected { value; _ } -> Alcotest.failf "wrong winner %s" value
  | Alt_block.Block_failed m -> Alcotest.failf "failed: %s" m

(* Prolog programs loaded from source text, solved OR-parallel in the
   simulator, with results matching the sequential engine's set. *)
let test_prolog_end_to_end () =
  let db = Database.with_prelude () in
  ignore
    (Database.add_program db
       "edge(a, b). edge(b, c). edge(c, d). edge(a, d).
        path(X, X, [X]).
        path(X, Z, [X|P]) :- edge(X, Y), path(Y, Z, P).");
  (match Solve.query db "path(a, d, P)" with
  | Ok sols ->
    check Alcotest.int "two routes a->d" 2 (List.length sols)
  | Error m -> Alcotest.failf "query failed: %s" m);
  let goal, _ = Parser.query "path(a, d, P)" in
  let r = Or_parallel.solve_sim db goal in
  match r.Or_parallel.first_solution with
  | Some [ (_, p) ] ->
    let seq_first =
      match (Solve.run ~max_solutions:1 db goal).Solve.solutions with
      | [ [ (_, t) ] ] -> [ t ]
      | _ -> []
    in
    (* OR-parallel may pick a different route than clause order: it must be
       one of the valid answers. *)
    let all =
      (Solve.run db goal).Solve.solutions |> List.map (fun s -> snd (List.hd s))
    in
    check Alcotest.bool "a valid route" true (List.exists (Term.equal p) all);
    check Alcotest.bool "sequential first also valid" true
      (match seq_first with [ t ] -> List.exists (Term.equal t) all | _ -> false)
  | _ -> Alcotest.fail "no OR-parallel solution"

(* The sort-selection story of section 4.2, on the simulator: a synthetic
   quicksort (fast on random, slow on sorted input) races a synthetic
   insertion sort (fast on sorted input). The block always costs about the
   winner's time. *)
let test_sort_selection_story () =
  let run_input ~sortedness =
    (* Cost models: quicksort degrades with sortedness, insertion improves. *)
    let qsort_cost = 1.0 +. (9.0 *. sortedness) in
    let isort_cost = 10.0 -. (9.0 *. sortedness) in
    let eng = Engine.create ~trace:false () in
    let r =
      Concurrent.run_toplevel eng
        [
          Alternative.fixed ~name:"quicksort" ~cost:qsort_cost "quicksort";
          Alternative.fixed ~name:"insertion" ~cost:isort_cost "insertion";
        ]
    in
    (r.Concurrent.elapsed, r.Concurrent.outcome)
  in
  let t_random, o_random = run_input ~sortedness:0. in
  let t_sorted, o_sorted = run_input ~sortedness:1. in
  check (Alcotest.float 1e-9) "random input: quicksort time" 1. t_random;
  check (Alcotest.float 1e-9) "sorted input: insertion time" 1. t_sorted;
  (match o_random with
  | Alt_block.Selected { value = "quicksort"; _ } -> ()
  | _ -> Alcotest.fail "quicksort should win random input");
  match o_sorted with
  | Alt_block.Selected { value = "insertion"; _ } -> ()
  | _ -> Alcotest.fail "insertion should win sorted input"

(* Throughput accounting across a whole experiment: total CPU equals winner
   work + wasted work, and wasted work matches the report. *)
let test_throughput_accounting () =
  let eng = Engine.create ~trace:false () in
  let r =
    Concurrent.run_toplevel eng
      [ Alternative.fixed ~cost:2. 0; Alternative.fixed ~cost:5. 1;
        Alternative.fixed ~cost:7. 2 ]
  in
  let total = Engine.total_cpu_time eng in
  check (Alcotest.float 1e-6) "total = winner + wasted" total
    (2. +. r.Concurrent.wasted_cpu);
  check (Alcotest.float 1e-6) "wasted = 2 siblings x 2s" 4. r.Concurrent.wasted_cpu

let () =
  Alcotest.run "integration"
    [
      ( "end-to-end",
        [
          Alcotest.test_case "block gates source output" `Quick
            test_block_gates_source_output;
          Alcotest.test_case "distributed recovery block" `Quick
            test_distributed_recovery_block_end_to_end;
          Alcotest.test_case "children split an outside observer" `Quick
            test_block_children_split_observer;
          Alcotest.test_case "nested alternative blocks" `Quick
            test_nested_alternative_blocks;
          Alcotest.test_case "prolog end-to-end" `Quick test_prolog_end_to_end;
          Alcotest.test_case "sort-selection story (section 4.2)" `Quick
            test_sort_selection_story;
          Alcotest.test_case "throughput accounting" `Quick test_throughput_accounting;
        ] );
    ]
