(* Tests for the paper's contribution: the analytic model, the sequential
   alternative-block semantics, the transparent concurrent execution, and
   the scheme comparison. *)

let check = Alcotest.check
let cf = Alcotest.float 1e-9

(* ---------------- Analytic ---------------- *)

(* PI > 1 exactly where the best alternative plus the overhead beats the
   mean: rows (1), (2) and (6) of the table. *)
let test_pi_basic () =
  List.iter
    (fun (r : Analytic.row) ->
      check Alcotest.bool ("row " ^ r.Analytic.label ^ " wins") (r.Analytic.pi_value > 1.)
        (Stats.min r.Analytic.times +. r.Analytic.overhead < Stats.mean r.Analytic.times))
    (Analytic.table_4_3 ());
  check Alcotest.(list string) "winning rows" [ "(1)"; "(2)"; "(6)" ]
    (List.filter_map
       (fun (r : Analytic.row) ->
         if r.Analytic.pi_value > 1. then Some r.Analytic.label else None)
       (Analytic.table_4_3 ()))

(* The table of section 4.3 — the recomputed PI must match the paper's
   printed values to their printed precision. *)
let test_table_4_3_matches_paper () =
  let rows = Analytic.table_4_3 () in
  check Alcotest.int "six rows" 6 (List.length rows);
  List.iter
    (fun (r : Analytic.row) ->
      let printed_precision =
        (* The paper prints two significant decimals for most rows. *)
        Float.abs (r.Analytic.pi_value -. r.Analytic.pi_paper)
      in
      if printed_precision > 0.005 then
        Alcotest.failf "row %s: recomputed %.4f vs paper %.2f" r.Analytic.label
          r.Analytic.pi_value r.Analytic.pi_paper)
    rows

(* The break-even overhead is [mean - best]: each row's overhead of 5 is
   below it exactly where PI > 1, and row (5) sits on it. *)
let test_break_even () =
  List.iter
    (fun (r : Analytic.row) ->
      let break_even = Stats.mean r.Analytic.times -. Stats.min r.Analytic.times in
      check Alcotest.int ("row " ^ r.Analytic.label)
        (Float.compare break_even r.Analytic.overhead)
        (Float.compare r.Analytic.pi_value 1.))
    (Analytic.table_4_3 ())

(* Each row's PI falls below its overhead-free value [mean / best]. *)
let test_pi_antitone_in_overhead () =
  List.iter
    (fun (r : Analytic.row) ->
      check Alcotest.bool ("row " ^ r.Analytic.label) true
        (r.Analytic.pi_value < Stats.mean r.Analytic.times /. Stats.min r.Analytic.times))
    (Analytic.table_4_3 ())

let test_pi_formula () =
  List.iter
    (fun (r : Analytic.row) ->
      check cf ("row " ^ r.Analytic.label)
        (Stats.mean r.Analytic.times /. (Stats.min r.Analytic.times +. r.Analytic.overhead))
        r.Analytic.pi_value)
    (Analytic.table_4_3 ())

(* ---------------- helpers ---------------- *)

let mk_engine ?(cores = Engine.Infinite) ?(model = Cost_model.uniform ()) () =
  Engine.create ~cores ~model ~trace:false ()

(* Run a function inside a root simulated process and return its result. *)
let in_process ?space eng f =
  let result = ref None in
  let pid =
    Engine.spawn eng ?space ~cloneable:false ~name:"test-root" (fun ctx ->
        result := Some (f ctx))
  in
  if Option.is_some space then Engine.preserve_space eng pid;
  Engine.run eng;
  match !result with
  | Some r -> r
  | None -> Alcotest.fail "process did not complete"

(* Sink state at a fixed address of the calling process's space; a write
   charges its copy-on-write fault to the caller's clock. *)
let set_int ctx addr v =
  Address_space.set_int (Option.get (Engine.space ctx)) ~addr v;
  Engine.charge_memory ctx

let get_int ctx addr =
  let v = Address_space.get_int (Option.get (Engine.space ctx)) ~addr in
  Engine.charge_memory ctx;
  v

(* ---------------- Alt_block (sequential semantics) ---------------- *)

(* An alternative that consumes [cost] seconds, then fails. *)
let failing ~cost () =
  Alternative.make ~name:"failing" (fun ctx ->
      Engine.delay ctx cost;
      raise (Alternative.Failed "failing"))

let test_run_first_picks_first_success () =
  let eng = mk_engine () in
  let alts =
    [
      failing ~cost:1. ();
      Alternative.fixed ~cost:1. "second";
      Alternative.fixed ~cost:1. "third";
    ]
  in
  match in_process eng (fun ctx -> Alt_block.run_first ctx alts) with
  | Alt_block.Selected { index; value } ->
    check Alcotest.int "index 1" 1 index;
    check Alcotest.string "value" "second" value
  | Alt_block.Block_failed _ -> Alcotest.fail "should have selected"

let test_run_first_all_fail () =
  let eng = mk_engine () in
  let alts = [ failing ~cost:1. (); failing ~cost:1. () ] in
  match in_process eng (fun ctx -> Alt_block.run_first ctx alts) with
  | Alt_block.Block_failed _ -> ()
  | Alt_block.Selected _ -> Alcotest.fail "should have failed"

let test_run_first_guard_skips () =
  let eng = mk_engine () in
  let alts =
    [
      Alternative.make ~guard:(fun _ -> false) (fun _ -> "guarded");
      Alternative.make (fun _ -> "open");
    ]
  in
  match in_process eng (fun ctx -> Alt_block.run_first ctx alts) with
  | Alt_block.Selected { index; value } ->
    check Alcotest.int "skipped closed guard" 1 index;
    check Alcotest.string "value" "open" value
  | Alt_block.Block_failed _ -> Alcotest.fail "should have selected"

let test_sequential_rollback_restores_memory () =
  let eng = mk_engine () in
  let space = Address_space.create (Engine.frame_store eng) (Engine.model eng) in
  Address_space.set_int space ~addr:0 100;
  let alts =
    [
      Alternative.make (fun ctx ->
          set_int ctx 0 999;
          (* Fail after the write: it must be rolled back. *)
          raise (Alternative.Failed "after write"));
      Alternative.make (fun ctx ->
          check Alcotest.int "second trial sees pristine state" 100
            (get_int ctx 0);
          set_int ctx 0 200;
          "done");
    ]
  in
  match in_process ~space eng (fun ctx -> Alt_block.run_first ctx alts) with
  | Alt_block.Selected { value = "done"; _ } ->
    check Alcotest.int "committed value" 200
      (Address_space.get_int space ~addr:0)
  | _ -> Alcotest.fail "unexpected outcome"

let test_sequential_rollback_on_total_failure () =
  let eng = mk_engine () in
  let space = Address_space.create (Engine.frame_store eng) (Engine.model eng) in
  Address_space.set_int space ~addr:0 1;
  let alts =
    [
      Alternative.make (fun ctx ->
          set_int ctx 0 2;
          raise (Alternative.Failed "x"));
    ]
  in
  (match in_process ~space eng (fun ctx -> Alt_block.run_first ctx alts) with
  | Alt_block.Block_failed _ -> ()
  | _ -> Alcotest.fail "expected failure");
  check Alcotest.int "state restored" 1 (Address_space.get_int space ~addr:0)

(* A body that calls [Engine.abort] fails that alternative, as it does
   in a concurrent child: the sequential block moves on to the next one
   and selects what [run_toplevel] selects. *)
let test_run_first_fails_over_on_abort () =
  let alts () =
    [
      Alternative.make (fun ctx ->
          Engine.delay ctx 1.;
          Engine.abort ctx "aborts");
      Alternative.make (fun _ -> 1);
    ]
  in
  let concurrent = Concurrent.run_toplevel (mk_engine ()) (alts ()) in
  (match concurrent.Concurrent.outcome with
  | Alt_block.Selected { index = 1; value = 1 } -> ()
  | _ -> Alcotest.fail "run_toplevel must select alternative 1");
  let eng = mk_engine () in
  let result = ref None in
  ignore
    (Engine.spawn eng ~cloneable:false ~name:"test-root" (fun ctx ->
         result := Some (Alt_block.run_first ctx (alts ()))));
  Engine.run eng;
  match !result with
  | Some (Alt_block.Selected { index = 1; value = 1 }) -> ()
  | Some (Alt_block.Selected { index; _ }) ->
    Alcotest.failf "run_first selected alternative %d" index
  | Some (Alt_block.Block_failed r) -> Alcotest.failf "run_first failed: %s" r
  | None -> Alcotest.fail "run_first gave no outcome: the abort escaped it"

(* A root process with a paged space, killed [at] seconds in while it
   runs [f]; the frames left referenced once the root's own space is
   released. The root's space is preserved across its exit, as a served
   job's is, so every frame still live was forked and never returned. *)
let frames_left_by_killed_root ~at f =
  let model = Cost_model.hp_9000_350 in
  let eng = Engine.create ~model ~trace:false () in
  let store = Engine.frame_store eng in
  let space = Address_space.create ~size_hint:(320 * 1024) store model in
  let pid =
    Engine.spawn eng ~space ~cloneable:false ~name:"root" (fun ctx -> f ctx)
  in
  Engine.preserve_space eng pid;
  Engine.after eng ~delay:at (fun () -> Engine.kill eng pid ~reason:"test kill");
  Engine.run eng;
  (match Engine.status eng pid with
  | Some (Engine.Eliminated _) -> ()
  | _ -> Alcotest.failf "the root was not killed at %g s" at);
  let children = Engine.children_of eng pid in
  Address_space.release space;
  (Frame_store.live_frames store, children)

let test_killed_attempt_returns_snapshot () =
  (* 80 pages: the snapshot fork costs 12 ms, then the body runs 1 s. A
     kill in either window must give the snapshot's frames back. *)
  let alts = [ Alternative.fixed ~cost:1. 0 ] in
  List.iter
    (fun at ->
      let live, _ =
        frames_left_by_killed_root ~at (fun ctx ->
            ignore (Alt_block.run_first ctx alts))
      in
      check Alcotest.int (Printf.sprintf "live frames, killed at %g s" at) 0 live)
    [ 0.005; 0.5 ]

(* ---------------- Concurrent ---------------- *)

let test_concurrent_fastest_wins () =
  let eng = mk_engine () in
  let r =
    Concurrent.run_toplevel eng
      [
        Alternative.fixed ~cost:3. "slow";
        Alternative.fixed ~cost:1. "fast";
        Alternative.fixed ~cost:2. "mid";
      ]
  in
  (match r.Concurrent.outcome with
  | Alt_block.Selected { index = 1; value = "fast" } -> ()
  | _ -> Alcotest.fail "fastest must win");
  check cf "elapsed = best time (zero overhead model)" 1. r.Concurrent.elapsed;
  check Alcotest.int "three children" 3 (List.length r.Concurrent.children);
  check cf "losers burnt 1s each" 2. r.Concurrent.wasted_cpu

let test_concurrent_guard_excludes () =
  let eng = mk_engine () in
  let r =
    Concurrent.run_toplevel eng
      [
        Alternative.make ~guard:(fun _ -> false) (fun ctx ->
            Engine.delay ctx 0.1;
            "closed but fast");
        Alternative.fixed ~cost:5. "open";
      ]
  in
  match r.Concurrent.outcome with
  | Alt_block.Selected { index = 1; _ } -> ()
  | _ -> Alcotest.fail "closed guard must not win"

let test_concurrent_all_fail () =
  let eng = mk_engine () in
  let r =
    Concurrent.run_toplevel eng
      [ failing ~cost:1. (); failing ~cost:2. () ]
  in
  (match r.Concurrent.outcome with
  | Alt_block.Block_failed _ -> ()
  | _ -> Alcotest.fail "must fail");
  (* The FAIL branch is known as soon as the last alternative fails. *)
  check cf "failure known at 2s" 2. r.Concurrent.elapsed

let test_concurrent_timeout () =
  let eng = mk_engine () in
  let policy = { Concurrent.default_policy with timeout = 0.5 } in
  let r = Concurrent.run_toplevel eng ~policy [ Alternative.fixed ~cost:100. 0 ] in
  (match r.Concurrent.outcome with
  | Alt_block.Block_failed "timeout" -> ()
  | _ -> Alcotest.fail "must time out");
  check cf "at the deadline" 0.5 r.Concurrent.elapsed;
  check Alcotest.int "no survivors" 0 (Engine.live_count eng)

let test_concurrent_crashing_alternative_is_failure () =
  let eng = mk_engine () in
  let r =
    Concurrent.run_toplevel eng
      [
        Alternative.make (fun _ -> failwith "unexpected bug");
        Alternative.fixed ~cost:1. "ok";
      ]
  in
  match r.Concurrent.outcome with
  | Alt_block.Selected { value = "ok"; _ } -> ()
  | _ -> Alcotest.fail "crash must not poison the block"

let test_concurrent_absorbs_winner_memory () =
  let eng = mk_engine () in
  let model = Engine.model eng in
  let space = Address_space.create (Engine.frame_store eng) model in
  Address_space.set_int space ~addr:0 0;
  let mark value cost =
    Alternative.make (fun ctx ->
        set_int ctx 0 value;
        Engine.delay ctx cost;
        value)
  in
  let r = Concurrent.run_toplevel eng ~space [ mark 111 2.; mark 222 1. ] in
  (match r.Concurrent.outcome with
  | Alt_block.Selected { value = 222; _ } -> ()
  | _ -> Alcotest.fail "fast marker must win");
  (* The parent's view must show exactly the winner's state change. *)
  check Alcotest.int "winner's write absorbed" 222
    (Address_space.get_int space ~addr:0);
  check Alcotest.bool "loser pages privatised then dropped" true
    (r.Concurrent.child_cow_copies >= 1)

let test_concurrent_transparency_vs_sequential () =
  (* Executing the block concurrently must leave the same final state as a
     sequential execution of the winning alternative alone. *)
  let final_of run_block =
    let eng = mk_engine () in
    let model = Engine.model eng in
    let space = Address_space.create (Engine.frame_store eng) model in
    Address_space.set_int space ~addr:0 0;
    Address_space.set_int space ~addr:8 0;
    let alts =
      [
        Alternative.make (fun ctx ->
            set_int ctx 0 1;
            Engine.delay ctx 5.;
            set_int ctx 8 1;
            "slow");
        Alternative.make (fun ctx ->
            set_int ctx 0 2;
            Engine.delay ctx 1.;
            set_int ctx 8 2;
            "fast");
      ]
    in
    let _ = run_block eng space alts in
    (Address_space.get_int space ~addr:0, Address_space.get_int space ~addr:8)
  in
  let concurrent =
    final_of (fun eng space alts -> Concurrent.run_toplevel eng ~space alts)
  in
  let sequential_of_winner =
    final_of (fun eng space alts ->
        let winner = List.nth alts 1 in
        in_process ~space eng (fun ctx -> Alt_block.run_first ctx [ winner ]))
  in
  check Alcotest.(pair int int) "indistinguishable final state"
    sequential_of_winner concurrent

let test_concurrent_setup_cost_charged () =
  (* With a real model, setup grows with the number of alternatives and the
     winner's elapsed time includes it. *)
  let model = Cost_model.hp_9000_350 in
  let run n =
    let eng = Engine.create ~model ~trace:false () in
    let space =
      Address_space.create ~size_hint:(320 * 1024) (Engine.frame_store eng) model
    in
    let alts = List.init n (fun i -> Alternative.fixed ~cost:1. i) in
    Concurrent.run_toplevel eng ~space alts
  in
  let r2 = run 2 and r4 = run 4 in
  check Alcotest.bool "setup grows with N" true
    (r4.Concurrent.setup_cost > r2.Concurrent.setup_cost *. 1.5);
  check Alcotest.bool "elapsed includes setup" true
    (r2.Concurrent.elapsed >= 1. +. r2.Concurrent.setup_cost);
  (* 2 forks of 80 pages at calibrated cost: 2 * 12ms. *)
  check Alcotest.bool "setup is 2 forks" true
    (Float.abs (r2.Concurrent.setup_cost -. 0.024) < 1e-6)

let test_setup_death_returns_frames () =
  (* Three local forks of 80 pages: a 36 ms setup delay before any child
     is spawned. The coordinator dies 10 ms into it. *)
  let alts = List.init 3 (fun i -> Alternative.fixed ~cost:1. i) in
  let live, children =
    frames_left_by_killed_root ~at:0.01 (fun ctx -> ignore (Concurrent.run ctx alts))
  in
  check Alcotest.int "no child was spawned" 0 (List.length children);
  check Alcotest.int "live frames" 0 live

let test_ship_back_death_returns_frames () =
  (* Remote placement: the winner's preserved space travels back before
     the parent absorbs it. A parent that dies during the transfer
     returns it. *)
  let policy =
    { Concurrent.default_policy with Concurrent.placement = Concurrent.Remote_spawn }
  in
  let alts = List.init 2 (fun i -> Alternative.fixed ~cost:(1. +. float_of_int i) i) in
  let model = Cost_model.hp_9000_350 in
  let eng = Engine.create ~model ~trace:false () in
  let space = Address_space.create ~size_hint:(320 * 1024) (Engine.frame_store eng) model in
  let r = Concurrent.run_toplevel eng ~policy ~space alts in
  (* The transfer is most of the selection cost, and its last part. *)
  let at = r.Concurrent.elapsed -. (0.5 *. r.Concurrent.selection_cost) in
  let live, _ =
    frames_left_by_killed_root ~at (fun ctx -> ignore (Concurrent.run ctx ~policy alts))
  in
  check Alcotest.int "live frames" 0 live

let test_concurrent_sim_matches_analytic_table () =
  List.iter
    (fun (row : Analytic.row) ->
      let eng = mk_engine () in
      let alts =
        Array.to_list
          (Array.mapi (fun i c -> Alternative.fixed ~cost:c i) row.Analytic.times)
      in
      let r = Concurrent.run_toplevel eng alts in
      let pi_sim =
        Stats.mean row.Analytic.times /. (r.Concurrent.elapsed +. row.Analytic.overhead)
      in
      if Float.abs (pi_sim -. row.Analytic.pi_value) > 1e-9 then
        Alcotest.failf "row %s: simulated PI %f vs analytic %f" row.Analytic.label
          pi_sim row.Analytic.pi_value)
    (Analytic.table_4_3 ())

let test_elimination_sync_charges_parent () =
  let model = { (Cost_model.uniform ()) with kill_per_sibling = 0.1 } in
  let eng = Engine.create ~model ~trace:false () in
  let r =
    Concurrent.run_toplevel eng
      ~policy:{ Concurrent.default_policy with elimination = Concurrent.Sync_elim }
      [ Alternative.fixed ~cost:1. "w"; Alternative.fixed ~cost:5. "l1";
        Alternative.fixed ~cost:5. "l2" ]
  in
  check cf "selection = 2 kill issues" 0.2 r.Concurrent.selection_cost;
  check cf "elapsed includes elimination" 1.2 r.Concurrent.elapsed

let test_elimination_async_does_not_charge_parent () =
  let model = { (Cost_model.uniform ()) with kill_per_sibling = 0.1; msg_latency = 0.05 } in
  let eng = Engine.create ~model ~trace:false () in
  let r =
    Concurrent.run_toplevel eng
      ~policy:{ Concurrent.default_policy with elimination = Concurrent.Async_elim }
      [ Alternative.fixed ~cost:1. "w"; Alternative.fixed ~cost:5. "l1";
        Alternative.fixed ~cost:5. "l2" ]
  in
  check cf "no selection charge" 0. r.Concurrent.selection_cost;
  check cf "parent resumes at once" 1. r.Concurrent.elapsed;
  (* But the zombies burn CPU until the background kill lands. *)
  check Alcotest.bool "extra wasted work" true (r.Concurrent.wasted_cpu > 2.)

let test_async_elimination_wastes_more_than_sync () =
  let run elimination =
    let model = { (Cost_model.uniform ()) with msg_latency = 0.2 } in
    let eng = Engine.create ~model ~trace:false () in
    (Concurrent.run_toplevel eng
       ~policy:{ Concurrent.default_policy with elimination }
       [ Alternative.fixed ~cost:1. 0; Alternative.fixed ~cost:9. 1 ])
      .Concurrent.wasted_cpu
  in
  check Alcotest.bool "async wastes more cpu" true
    (run Concurrent.Async_elim > run Concurrent.Sync_elim)

let test_concurrent_with_consensus_sync () =
  let eng = Engine.create ~model:Cost_model.hp_9000_350 ~trace:false () in
  let policy =
    {
      Concurrent.default_policy with
      sync =
        Concurrent.Consensus
          { nodes = 5; crashed = [ 1 ]; vote_delay = 0.001; reply_timeout = 0.5 };
    }
  in
  let r =
    Concurrent.run_toplevel eng ~policy
      [ Alternative.fixed ~cost:1. "a"; Alternative.fixed ~cost:0.2 "b" ]
  in
  (match r.Concurrent.outcome with
  | Alt_block.Selected { value = "b"; _ } -> ()
  | _ -> Alcotest.fail "fastest must win under consensus too");
  check Alcotest.bool "consensus messages counted" true (r.Concurrent.sync_messages > 0);
  check Alcotest.bool "consensus adds latency" true (r.Concurrent.elapsed > 0.2)

let test_concurrent_consensus_majority_crashed_fails_block () =
  let eng = Engine.create ~model:Cost_model.hp_9000_350 ~trace:false () in
  let policy =
    {
      Concurrent.default_policy with
      sync =
        Concurrent.Consensus
          { nodes = 3; crashed = [ 0; 1 ]; vote_delay = 0.; reply_timeout = 0.1 };
      timeout = 30.;
    }
  in
  let r = Concurrent.run_toplevel eng ~policy [ Alternative.fixed ~cost:0.1 "x" ] in
  match r.Concurrent.outcome with
  | Alt_block.Block_failed _ -> ()
  | _ -> Alcotest.fail "no majority -> no commit"

let test_cores_contention_slows_block () =
  let run cores =
    let eng = mk_engine ~cores () in
    (Concurrent.run_toplevel eng
       (List.init 4 (fun i -> Alternative.fixed ~cost:1. i)))
      .Concurrent.elapsed
  in
  check cf "infinite cores: best time" 1. (run Engine.Infinite);
  check cf "1 core: mean-ish (4 tasks PS until first completes)" 4.
    (run (Engine.Cores 1));
  check cf "2 cores" 2. (run (Engine.Cores 2));
  check Alcotest.bool "monotone in cores" true
    (run (Engine.Cores 1) >= run (Engine.Cores 2)
    && run (Engine.Cores 2) >= run (Engine.Cores 4))

let test_empty_block_rejected () =
  let eng = mk_engine () in
  let raised = ref false in
  ignore
    (Engine.spawn eng ~cloneable:false (fun ctx ->
         try ignore (Concurrent.run ctx ([] : unit Alternative.t list))
         with Invalid_argument _ -> raised := true));
  Engine.run eng;
  check Alcotest.bool "empty rejected" true !raised

let test_winner_fate_completed_losers_failed () =
  let eng = Engine.create ~trace:false () in
  let r =
    Concurrent.run_toplevel eng
      [ Alternative.fixed ~cost:1. "w"; Alternative.fixed ~cost:2. "l" ]
  in
  let reg = Engine.registry eng in
  (match (r.Concurrent.winner, r.Concurrent.children) with
  | Some w, children ->
    check Alcotest.bool "winner completed" true
      (Fate_registry.fate reg w = Some Predicate.Completed);
    List.iter
      (fun c ->
        if not (Pid.equal c w) then
          check Alcotest.bool "loser failed" true
            (Fate_registry.fate reg c = Some Predicate.Failed))
      children
  | None, _ -> Alcotest.fail "expected a winner")

(* Regression: under before-spawn and redundant guards the closed
   alternative's pid was issued but never spawned, yet the open one still
   assumed it fails. That fate is never decided, so the winner never
   became certain and its tty line stayed buffered. Every placement must
   emit the winner's line and record it completed. *)
let test_guard_placements_agree () =
  List.iter
    (fun guards ->
      let eng = Engine.create ~trace:false () in
      let tty = Source.create eng ~name:"tty" in
      let alt ?guard line =
        Alternative.make ?guard (fun ctx ->
            Source.write ctx tty line;
            Engine.delay ctx 1.;
            line)
      in
      let r =
        Concurrent.run_toplevel eng
          ~policy:{ Concurrent.default_policy with guards }
          [ alt ~guard:(fun _ -> false) "closed"; alt "winner" ]
      in
      let name = Concurrent.describe { Concurrent.default_policy with guards } in
      check
        Alcotest.(list string)
        (name ^ ": tty") [ "winner" ]
        (List.map (fun (_, _, l) -> l) (Source.output tty));
      match r.Concurrent.winner with
      | Some w ->
        check Alcotest.bool (name ^ ": winner completed") true
          (Fate_registry.fate (Engine.registry eng) w = Some Predicate.Completed)
      | None -> Alcotest.fail (name ^ ": no winner"))
    Concurrent.[ Guard_in_child; Guard_before_spawn; Guard_at_sync; Guard_redundant ]

(* The observable outcome must equal some sequential selection: the
   transparency property, tested over random cost vectors. *)
let prop_concurrent_selects_a_real_alternative =
  QCheck.Test.make ~name:"concurrent outcome is a valid selection" ~count:100
    QCheck.(array_of_size Gen.(int_range 1 6) (float_range 0.1 10.))
    (fun costs ->
      let eng = mk_engine () in
      let alts = Array.to_list (Array.mapi (fun i c -> Alternative.fixed ~cost:c i) costs) in
      let r = Concurrent.run_toplevel eng alts in
      match r.Concurrent.outcome with
      | Alt_block.Selected { index; value } ->
        index = value
        && Float.abs (costs.(index) -. Stats.min costs) < 1e-9
        && Float.abs (r.Concurrent.elapsed -. Stats.min costs) < 1e-9
      | Alt_block.Block_failed _ -> false)

let test_children_inherit_parent_predicates () =
  (* Section 3.3: "the predicates of a child process consist of those of
     the parent", plus self-completes and siblings-fail. *)
  let eng = Engine.create ~trace:false () in
  let dep = (Engine.fresh_pids eng 1).(0) in
  let child_preds = ref [] in
  ignore
    (Engine.spawn eng ~cloneable:false
       ~predicate:(Predicate.make ~must_complete:[ dep ] ~must_fail:[])
       (fun ctx ->
         ignore
           (Concurrent.run ctx
              [
                Alternative.make (fun cctx ->
                    child_preds := Engine.my_predicate cctx :: !child_preds;
                    Engine.delay cctx 0.1;
                    0);
                Alternative.make (fun cctx ->
                    child_preds := Engine.my_predicate cctx :: !child_preds;
                    Engine.delay cctx 0.2;
                    1);
              ])));
  ignore (Engine.spawn eng ~pid:dep (fun ctx -> Engine.delay ctx 10.));
  Engine.run eng;
  check Alcotest.int "both children sampled" 2 (List.length !child_preds);
  List.iter
    (fun p ->
      check Alcotest.bool "parent's assumption inherited" true
        (Predicate.mem_completes p dep);
      check Alcotest.int "parent's + self + sibling" 3 (Predicate.cardinal p))
    !child_preds

(* ---------------- Schemes ---------------- *)

let test_schemes_evaluate_known_matrix () =
  let w =
    { Schemes.description = "fixed"; times = [| [| 1.; 9. |]; [| 9.; 1. |] |] }
  in
  let e = Schemes.evaluate w ~overhead:0.5 in
  check cf "A: both columns mean 5" 5. e.Schemes.scheme_a;
  check cf "B: global mean 5" 5. e.Schemes.scheme_b;
  check cf "oracle: always 1" 1. e.Schemes.oracle;
  check cf "C = oracle + overhead" 1.5 e.Schemes.scheme_c;
  check cf "PI" (5. /. 1.5) e.Schemes.pi_c_over_b

let test_schemes_a_picks_best_column () =
  let w =
    { Schemes.description = "skewed"; times = [| [| 2.; 10. |]; [| 4.; 10. |] |] }
  in
  let e = Schemes.evaluate w ~overhead:0. in
  check cf "A commits to column 0" 3. e.Schemes.scheme_a

let test_schemes_generate_shapes () =
  let rng = Rng.create ~seed:7 in
  let w =
    Schemes.generate ~rng ~inputs:50 ~alternatives:3
      ~dist:(`Bimodal (1., 100., 0.3)) ~description:"queries"
  in
  check Alcotest.int "inputs" 50 (Array.length w.Schemes.times);
  check Alcotest.int "alternatives" 3 (Array.length w.Schemes.times.(0));
  Array.iter
    (Array.iter (fun v ->
         if v <> 1. && v <> 100. then Alcotest.fail "bimodal draws only two values"))
    w.Schemes.times

let prop_scheme_c_bounds =
  QCheck.Test.make ~name:"oracle <= A and oracle <= B" ~count:200
    QCheck.(pair small_int (int_range 1 5))
    (fun (seed, alternatives) ->
      let rng = Rng.create ~seed in
      let w =
        Schemes.generate ~rng ~inputs:20 ~alternatives ~dist:(`Exponential 5.)
          ~description:"prop"
      in
      let e = Schemes.evaluate w ~overhead:0. in
      e.Schemes.oracle <= e.Schemes.scheme_a +. 1e-9
      && e.Schemes.oracle <= e.Schemes.scheme_b +. 1e-9)

(* ---------------- Pinned process names and trace bytes ---------------- *)

(* These pins were taken from the code that built every name with
   [Printf] and recorded every trace event unconditionally. Names must
   not move: [Faultplan] matches process rules by name substring, so a
   renamed process silently changes which rules fire. The trace must not
   lose an event to the [Trace.wants] guards: the oracle audits it. *)

let pinned label expected actual =
  check Alcotest.(list string) label expected actual

let spawned_names eng =
  List.filter_map
    (fun (_, e) ->
      match e with Trace.Spawned { name; _ } -> Some name | _ -> None)
    (Trace.events (Engine.trace eng))

let consensus3 ?(crashed = []) () =
  {
    Concurrent.default_policy with
    sync =
      Concurrent.Consensus
        { nodes = 3; crashed; vote_delay = 0.0002; reply_timeout = 0.05 };
  }

let scenario_run name policy =
  fst
    (Invariants.run_checked ~record:true
       (Option.get (Invariants.find_scenario name))
       ~policy ~seed:1)

let scenario_names name policy =
  spawned_names (scenario_run name policy).Invariants.engine

let test_names_of_scenario_blocks () =
  pinned "counters, local latch"
    [ "alt-parent"; "ctr0[0]"; "ctr1[1]"; "ctr2[2]" ]
    (scenario_names "counters" Concurrent.default_policy);
  pinned "counters, 3-node consensus"
    [
      "alt-parent";
      "voter0";
      "voter1";
      "voter2";
      "ctr0[0]";
      "ctr1[1]";
      "ctr2[2]";
    ]
    (scenario_names "counters" (consensus3 ()));
  pinned "guarded, local latch"
    [ "alt-parent"; "g0[0]"; "g1[1]"; "g2[2]" ]
    (scenario_names "guarded" Concurrent.default_policy);
  pinned "guarded, 3-node consensus"
    [
      "alt-parent";
      "voter0";
      "voter1";
      "voter2";
      "g0[0]";
      "g1[1]";
      "g2[2]";
    ]
    (scenario_names "guarded" (consensus3 ()));
  pinned "a crashed voter"
    [
      "alt-parent";
      "voter0";
      "voter1(crashed)";
      "voter2";
      "ctr0[0]";
      "ctr1[1]";
      "ctr2[2]";
    ]
    (scenario_names "counters" (consensus3 ~crashed:[ 1 ] ()))

(* A supervised block whose first [kills] coordinators are killed
   shortly after they spawn, so the watchdog restarts it [kills] times. *)
let supervised_names ~kills =
  let eng = Engine.create ~seed:7 () in
  let sites = Sites.create eng ~names:[ "s0"; "s1"; "s2" ] in
  let killed = ref 0 in
  Engine.set_spawn_hook eng
    (Some
       (fun pid name ->
         if String.starts_with ~prefix:"alt-parent" name && !killed < kills
         then begin
           incr killed;
           Engine.after eng ~delay:0.001 (fun () ->
               Engine.kill eng pid ~reason:"test kill")
         end));
  let alts =
    List.init 2 (fun i ->
        Alternative.make ~name:"s" (fun ctx ->
            Engine.delay ctx (0.01 *. float_of_int (i + 1));
            i))
  in
  let sr =
    Concurrent.run_supervised eng ~policy:(consensus3 ()) ~max_restarts:kills
      ~sites alts
  in
  check Alcotest.int "restarts" kills (List.length sr.Concurrent.sr_recoveries);
  spawned_names eng

let test_names_of_supervised_restarts () =
  pinned "one restart"
    [
      "voter0";
      "voter1";
      "voter2";
      "alt-parent.e1";
      "s[0]";
      "s[1]";
      "alt-parent.e2";
      "s[0]";
      "s[1]";
    ] (supervised_names ~kills:1);
  pinned "restarts up to epoch 8"
    [
      "voter0";
      "voter1";
      "voter2";
      "alt-parent.e1";
      "s[0]";
      "s[1]";
      "alt-parent.e2";
      "s[0]";
      "s[1]";
      "alt-parent.e3";
      "s[0]";
      "s[1]";
      "alt-parent.e4";
      "s[0]";
      "s[1]";
      "alt-parent.e5";
      "s[0]";
      "s[1]";
      "alt-parent.e6";
      "s[0]";
      "s[1]";
      "alt-parent.e7";
      "s[0]";
      "s[1]";
      "alt-parent.e8";
      "s[0]";
      "s[1]";
    ] (supervised_names ~kills:7)

let test_names_past_table_ends () =
  let eng = Engine.create () in
  let alts =
    List.init 17 (fun i ->
        Alternative.make ~name:"w" (fun ctx ->
            Engine.delay ctx (0.001 *. float_of_int (i + 1));
            i))
  in
  ignore (Concurrent.run_toplevel eng alts);
  pinned "alternative 16"
    [
      "alt-parent";
      "w[0]";
      "w[1]";
      "w[2]";
      "w[3]";
      "w[4]";
      "w[5]";
      "w[6]";
      "w[7]";
      "w[8]";
      "w[9]";
      "w[10]";
      "w[11]";
      "w[12]";
      "w[13]";
      "w[14]";
      "w[15]";
      "w[16]";
    ] (spawned_names eng);
  let eng = Engine.create () in
  let maj = Majority.create eng ~nodes:10 ~crashed:[ 9 ] () in
  Majority.shutdown maj;
  Engine.run eng;
  pinned "voters 8 and 9"
    [
      "voter0";
      "voter1";
      "voter2";
      "voter3";
      "voter4";
      "voter5";
      "voter6";
      "voter7";
      "voter8";
      "voter9(crashed)";
    ] (spawned_names eng)

let trace_digest eng =
  Digest.to_hex (Digest.string (Trace.to_jsonl (Engine.trace eng)))

let test_recorded_trace_digests () =
  pinned "Trace.to_jsonl digests"
    [
      "e3c0fa72e3374b56fe8928091c06d844";
      "62666151dcdc27a128e5fdfd22c255ff";
      "aecf1dddfff618d8a93a3cde084b3b65";
      "bbaa242e311533fc29560ce279f96def";
    ]
    (List.map
       (fun (name, policy) -> trace_digest (scenario_run name policy).Invariants.engine)
       [
         ("counters", Concurrent.default_policy);
         ("counters", consensus3 ());
         ("guarded", Concurrent.default_policy);
         ("guarded", consensus3 ());
       ])

(* An event and its time as one comparable line. *)
let render_event (time, e) = Format.asprintf "%h %a" time Trace.pp_event e

(* Recording off, a subscriber to every kind attached: it must see every
   event a recording run stores, in the same order. *)
let test_observer_only_run () =
  let sc = Option.get (Invariants.find_scenario "counters") in
  let policy = consensus3 () in
  let recorded =
    List.map render_event
      (Trace.events (Engine.trace (scenario_run "counters" policy).Invariants.engine))
  in
  let eng = Engine.create ~model:Cost_model.att_3b2 ~seed:1 ~trace:false () in
  let seen = ref [] in
  ignore
    (let tr = Engine.trace eng in
     Trace.subscribe tr Trace.Kind.all (fun e ->
         seen := render_event (Trace.now tr, e) :: !seen));
  ignore (Invariants.run_block eng sc (Invariants.Racing { exclusive = false; budget = infinity }) ~policy ~seed:1);
  check Alcotest.int "observed events" 64 (List.length !seen);
  check Alcotest.(list string) "observer sees the recorded stream" recorded
    (List.rev !seen)

(* ------------------------------------------------------------------ *)
(* Trace subscriptions.                                                *)

(* Every default scenario under a local latch and under consensus, with
   the recorder on and three more subscribers: the sanitizer's kinds, one
   kind, and every kind. Each must see the recorder's stream filtered by
   its mask: the same events, times and order. *)
let test_subscribers_see_their_kinds () =
  let events_of kinds stream =
    List.filter (fun (_, e) -> Trace.kind e land kinds <> 0) stream
  in
  let render l = List.map render_event l in
  List.iter
    (fun (sc : Invariants.scenario) ->
      List.iter
        (fun (pname, policy) ->
          let eng =
            Engine.create ~model:Cost_model.att_3b2 ~seed:1 ~trace:true ()
          in
          let tr = Engine.trace eng in
          let subscribers =
            List.map
              (fun kinds ->
                let seen = ref [] in
                ignore
                  (Trace.subscribe tr kinds (fun e ->
                       seen := (Trace.now tr, e) :: !seen));
                (kinds, seen))
              [ Sanitizer.kinds; Trace.Kind.accepted; Trace.Kind.all ]
          in
          ignore
            (Invariants.run_block eng sc
               (Invariants.Racing { exclusive = false; budget = infinity })
               ~policy ~seed:1);
          let recorded = Trace.events tr in
          List.iter
            (fun (kinds, seen) ->
              check
                Alcotest.(list string)
                (Printf.sprintf "%s, %s, mask %#x" sc.Invariants.sc_name pname
                   kinds)
                (render (events_of kinds recorded))
                (render (List.rev !seen)))
            subscribers)
        [ ("local latch", Concurrent.default_policy); ("consensus", consensus3 ()) ])
    Invariants.default_scenarios

(* Recording off and only the sanitizer attached: the engine is asked to
   build no kind the sanitizer does not read. *)
let test_sanitizer_kinds_only () =
  let eng = Engine.create ~trace:false () in
  let tr = Engine.trace eng in
  check Alcotest.bool "nothing wanted before" false (Trace.wants tr Trace.Kind.all);
  let sz = Sanitizer.attach eng in
  for bit = 0 to 22 do
    let k = 1 lsl bit in
    check Alcotest.bool
      (Printf.sprintf "kind %#x" k)
      (Sanitizer.kinds land k <> 0) (Trace.wants tr k)
  done;
  Sanitizer.detach sz;
  check Alcotest.bool "nothing wanted after" false (Trace.wants tr Trace.Kind.all)

(* A subscriber that records from inside its callback (as the sanitizer
   traces its flags): the recorded event waits until every subscriber has
   seen the current one, so all streams keep the recorder's order, and
   every later subscriber still reads the current event's time through
   [Trace.now]. The recorder stores each event with its own time. *)
let test_record_from_a_subscriber () =
  let tr = Trace.create () in
  let first = ref [] and second = ref [] in
  let note e = Format.asprintf "%h %a" (Trace.now tr) Trace.pp_event e in
  ignore
    (Trace.subscribe tr Trace.Kind.all (fun e ->
         first := note e :: !first;
         match e with
         | Trace.Started p ->
           Trace.record tr ~time:(Trace.now tr +. 0.5) (Trace.Note (Pid.to_string p))
         | _ -> ()));
  ignore
    (Trace.subscribe tr Trace.Kind.all (fun e -> second := note e :: !second));
  Trace.record tr ~time:1. (Trace.Started (Pid.of_int 3));
  Trace.record tr ~time:2. (Trace.Started (Pid.of_int 4));
  let recorded = List.map render_event (Trace.events tr) in
  check Alcotest.(list string) "the recorder keeps each event's own time"
    (List.map render_event
       [ (1., Trace.Started (Pid.of_int 3)); (1.5, Trace.Note "P3");
         (2., Trace.Started (Pid.of_int 4)); (2.5, Trace.Note "P4") ])
    recorded;
  check Alcotest.(list string) "first subscriber" recorded (List.rev !first);
  check Alcotest.(list string) "second subscriber" recorded (List.rev !second)

(* ---------------- Allocation budget ----------------

   Words per [run_toplevel] of a block of three fixed-cost alternatives
   ([Alloc_words]: minor plus direct major words) on a warm engine (its
   handler built, its tables grown by a first run of the same shape and
   then reset, as a serving domain's engine is between batches), under the default policy with a local
   latch and with a 3-node consensus group. A block allocates its
   children's processes, its report and little else: one block record
   that the children's bodies and one shared exit watcher close over,
   and its children's pids in one array. A consensus round allocates its
   messages and little else: the voters are engine services (no fiber,
   one CPU park built at their spawn, no mailbox while they are idle),
   their grant state is int arrays, a tagged receive builds no cursor
   closure, a reply shares its request's round block, a round tallies
   its replies in a bitmask, and the acquisition's options are boxed
   once per block. A message costs its record alone: no delivery box,
   no FIFO-clock table per sender, and no mailbox for a requester that
   waits for its replies. The ceilings sit about 5% above the measured
   figures (337 and 565 words with OCaml 5.1.1; 345 and 652 with a
   delivery box per send, a clock table per sender and a mailbox per
   requester; 751 for the consensus block with
   a fiber per voter; 455 and 924 with a boxed engine clock, a fate cell per
   normalisation and a mailbox, context and start event per process, the
   pids in a list and a round's replies in a list). They reject a body
   closure over a dozen captured variables and refs, an exit watcher per
   child, a chain of predicate copies per child and list pipelines for
   the victims (888
   and 1715 words with -opaque), and also closures built at every exit
   and vote with the voters' grants in option refs (601 and 1394 with
   -opaque). *)

let block_alts =
  [
    Alternative.fixed ~cost:3. "slow";
    Alternative.fixed ~cost:1. "fast";
    Alternative.fixed ~cost:2. "mid";
  ]

let consensus_policy =
  {
    Concurrent.default_policy with
    sync = Concurrent.Consensus { nodes = 3; crashed = []; vote_delay = 0.; reply_timeout = 1. };
  }

let block_words ~n policy =
  let eng = mk_engine () in
  let blocks k =
    for _ = 1 to k do
      ignore (Concurrent.run_toplevel eng ~policy block_alts)
    done
  in
  blocks n;
  Engine.reset eng ~seed:42;
  Alloc_words.of_run (fun () -> blocks n) /. float_of_int n

let test_block_alloc_budget name policy ceiling () =
  let w = block_words ~n:2000 policy in
  if w > ceiling then Alcotest.failf "%s: %.1f words, ceiling %.0f" name w ceiling

(* The same consensus block of three under the coordinator watchdog, as
   the serving layer runs it: three sites, a two-page space checkpointed
   at entry, no fault. Supervision adds the voter group (created per
   block), the checkpoint and one coordinator incarnation, and allocates
   little else: one supervisor record that the incarnation's body and
   exit watcher close over, site choice by index loops, a checkpoint
   that reads the page map's layer tables directly, and a report copied
   only when its waste is recounted. The engine is not reset between
   blocks, so the FIFO-clock table reclaims the pairs whose clocks have
   passed instead of growing. The ceiling sits about 5% above the
   measured figure (808.5 words with OCaml 5.1.1; 879.6 with a delivery
   box per send, a clock table per sender and a mailbox per requester;
   919.6 with one engine table that never reclaims a pair;
   978.6 with a fiber per voter, where a released page table goes to the
   domain's spare tables; 1197 before the engine's
   fixed costs left the heap, 1249 when the pending cost was boxed). It
   rejects closures per incarnation over the block's arguments, site
   choice by list filters, a checkpoint through a hash table and a
   sorted list, and a placement hook that boxes per spawn (1882 words
   with -opaque). *)
let supervised_words ~n =
  let eng = mk_engine () in
  let sites = Sites.create eng ~names:[ "s0"; "s1"; "s2" ] in
  let space = Address_space.create (Engine.frame_store eng) (Engine.model eng) in
  Address_space.set_int space ~addr:0 1;
  Address_space.set_int space ~addr:(Engine.model eng).Cost_model.page_size 2;
  let blocks k =
    for _ = 1 to k do
      ignore
        (Concurrent.run_supervised eng ~policy:consensus_policy ~space ~sites
           block_alts)
    done
  in
  blocks 64;
  Alloc_words.of_run (fun () -> blocks n) /. float_of_int n

let test_supervised_alloc_budget ceiling () =
  let w = supervised_words ~n:2000 in
  if w > ceiling then
    Alcotest.failf "supervised 3-node consensus block of three: %.1f words, ceiling %.0f"
      w ceiling

(* A sanitized block of three as a serving domain runs a batch: reset
   the engine, re-arm the domain's one sanitizer, run the local-latch
   block of three and detach. The sanitizer pays for what it checks, its
   clock snapshots and the engine's event records, and not for its
   plumbing: [arm] re-attaches the trace subscription and frame-store
   observer [create] built, detaching takes them off by physical
   identity, an event's time reaches the subscriber in the trace's cell,
   and each exit status is rendered once per reason. The ceiling sits
   about 5% above the measured figure (370 words with OCaml 5.1.1; 456
   with a subscription, an observer and a subscriber list built per arm,
   closures to filter them out per detach, a boxed time per subscribed
   event and a status string built per exit). *)
let sanitized_block_words ~n =
  let eng = mk_engine () in
  let sz = Sanitizer.create eng in
  let batches k =
    for _ = 1 to k do
      Engine.reset eng ~seed:42;
      Sanitizer.arm sz;
      ignore (Concurrent.run_toplevel eng ~policy:Concurrent.default_policy block_alts);
      Sanitizer.detach sz
    done
  in
  batches 64;
  Alloc_words.of_run (fun () -> batches n) /. float_of_int n

let test_sanitized_alloc_budget ceiling () =
  let w = sanitized_block_words ~n:2000 in
  if w > ceiling then
    Alcotest.failf "sanitized local-latch block of three: %.1f words, ceiling %.0f" w
      ceiling

let () =
  Alcotest.run "core"
    [
      ( "analytic",
        [
          Alcotest.test_case "pi basics" `Quick test_pi_basic;
          Alcotest.test_case "table 4.3 matches the paper" `Quick
            test_table_4_3_matches_paper;
          Alcotest.test_case "break-even overhead" `Quick test_break_even;
          Alcotest.test_case "PI = mean / (best + overhead)" `Quick test_pi_formula;
          Alcotest.test_case "PI decreases with overhead" `Quick test_pi_antitone_in_overhead;
        ] );
      ( "alt_block",
        [
          Alcotest.test_case "run_first picks first success" `Quick
            test_run_first_picks_first_success;
          Alcotest.test_case "run_first all fail" `Quick test_run_first_all_fail;
          Alcotest.test_case "guards skip alternatives" `Quick test_run_first_guard_skips;
          Alcotest.test_case "rollback restores memory" `Quick
            test_sequential_rollback_restores_memory;
          Alcotest.test_case "rollback on total failure" `Quick
            test_sequential_rollback_on_total_failure;
          Alcotest.test_case "run_first fails over on abort" `Quick
            test_run_first_fails_over_on_abort;
          Alcotest.test_case "a root killed mid-attempt returns its snapshot" `Quick
            test_killed_attempt_returns_snapshot;
        ] );
      ( "concurrent",
        [
          Alcotest.test_case "fastest wins" `Quick test_concurrent_fastest_wins;
          Alcotest.test_case "guards exclude" `Quick test_concurrent_guard_excludes;
          Alcotest.test_case "all fail" `Quick test_concurrent_all_fail;
          Alcotest.test_case "timeout" `Quick test_concurrent_timeout;
          Alcotest.test_case "crash handled as failure" `Quick
            test_concurrent_crashing_alternative_is_failure;
          Alcotest.test_case "winner memory absorbed" `Quick
            test_concurrent_absorbs_winner_memory;
          Alcotest.test_case "transparent vs sequential" `Quick
            test_concurrent_transparency_vs_sequential;
          Alcotest.test_case "setup cost charged" `Quick test_concurrent_setup_cost_charged;
          Alcotest.test_case "simulation matches table 4.3" `Quick
            test_concurrent_sim_matches_analytic_table;
          Alcotest.test_case "sync elimination charges parent" `Quick
            test_elimination_sync_charges_parent;
          Alcotest.test_case "async elimination is free for the parent" `Quick
            test_elimination_async_does_not_charge_parent;
          Alcotest.test_case "async wastes more cpu than sync" `Quick
            test_async_elimination_wastes_more_than_sync;
          Alcotest.test_case "consensus sync" `Quick test_concurrent_with_consensus_sync;
          Alcotest.test_case "consensus majority crashed" `Quick
            test_concurrent_consensus_majority_crashed_fails_block;
          Alcotest.test_case "core contention" `Quick test_cores_contention_slows_block;
          Alcotest.test_case "empty block rejected" `Quick test_empty_block_rejected;
          Alcotest.test_case "fates recorded" `Quick test_winner_fate_completed_losers_failed;
          Alcotest.test_case "guard placements agree" `Quick test_guard_placements_agree;
          Alcotest.test_case "children inherit parent predicates" `Quick
            test_children_inherit_parent_predicates;
          QCheck_alcotest.to_alcotest prop_concurrent_selects_a_real_alternative;
          Alcotest.test_case "a coordinator killed in its setup delay returns every frame"
            `Quick test_setup_death_returns_frames;
          Alcotest.test_case "a coordinator killed shipping its winner back returns it"
            `Quick test_ship_back_death_returns_frames;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "local-latch block of three" `Quick
            (test_block_alloc_budget "local-latch block of three"
               Concurrent.default_policy 354.);
          Alcotest.test_case "3-node consensus block of three" `Quick
            (test_block_alloc_budget "3-node consensus block of three" consensus_policy
               593.);
          Alcotest.test_case "supervised 3-node consensus block of three" `Quick
            (test_supervised_alloc_budget 849.);
          Alcotest.test_case "sanitized block of three: arm, run, detach" `Quick
            (test_sanitized_alloc_budget 389.);
        ] );
      ( "pinned",
        [
          Alcotest.test_case "scenario block names" `Quick
            test_names_of_scenario_blocks;
          Alcotest.test_case "supervised restart names" `Quick
            test_names_of_supervised_restarts;
          Alcotest.test_case "names past the tables" `Quick
            test_names_past_table_ends;
          Alcotest.test_case "recorded trace digests" `Quick
            test_recorded_trace_digests;
          Alcotest.test_case "observer-only run" `Quick test_observer_only_run;
        ] );
      ( "subscribe",
        [
          Alcotest.test_case "subscribers see exactly their kinds" `Quick
            test_subscribers_see_their_kinds;
          Alcotest.test_case "sanitizer alone wants only its kinds" `Quick
            test_sanitizer_kinds_only;
          Alcotest.test_case "recording from a subscriber keeps order" `Quick
            test_record_from_a_subscriber;
        ] );
      ( "schemes",
        [
          Alcotest.test_case "known matrix" `Quick test_schemes_evaluate_known_matrix;
          Alcotest.test_case "A picks best column" `Quick test_schemes_a_picks_best_column;
          Alcotest.test_case "generate shapes" `Quick test_schemes_generate_shapes;
          QCheck_alcotest.to_alcotest prop_scheme_c_bounds;
        ] );
    ]
