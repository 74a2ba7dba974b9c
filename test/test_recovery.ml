(* Tests for recovery blocks (section 5.1) and fault injection. *)

let check = Alcotest.check
let cf = Alcotest.float 1e-9

let mk_engine ?(model = Cost_model.uniform ()) () =
  Engine.create ~model ~trace:false ()

let in_process ?space eng f =
  let result = ref None in
  let pid =
    Engine.spawn eng ?space ~cloneable:false ~name:"rb-root" (fun ctx ->
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

let accept_positive = fun _ctx v -> v > 0

let timed name cost value =
  Recovery_block.alternate ~name (fun ctx ->
      Engine.delay ctx cost;
      value)

let test_make_validations () =
  Alcotest.check_raises "no alternates"
    (Invalid_argument "Recovery_block.make: no alternates") (fun () ->
      ignore (Recovery_block.make ~acceptance:accept_positive []))

let test_sequential_primary_accepted () =
  let eng = mk_engine () in
  let rb =
    Recovery_block.make ~acceptance:accept_positive
      [ timed "primary" 1. 10; timed "secondary" 1. 20 ]
  in
  let r = in_process eng (fun ctx -> Recovery_block.run_sequential ctx rb) in
  check Alcotest.bool "primary accepted" true (r.Recovery_block.verdict = `Accepted (0, 10));
  check Alcotest.int "one attempt" 1 r.Recovery_block.attempts;
  check Alcotest.int "no rollback" 0 r.Recovery_block.rollbacks;
  check cf "only primary's time" 1. r.Recovery_block.elapsed

let test_sequential_fallback_after_rejection () =
  let eng = mk_engine () in
  let rb =
    Recovery_block.make ~acceptance:accept_positive
      [ timed "primary" 2. (-1); timed "secondary" 1. 7 ]
  in
  let r = in_process eng (fun ctx -> Recovery_block.run_sequential ctx rb) in
  check Alcotest.bool "secondary accepted" true
    (r.Recovery_block.verdict = `Accepted (1, 7));
  check Alcotest.int "two attempts" 2 r.Recovery_block.attempts;
  check Alcotest.int "one rollback" 1 r.Recovery_block.rollbacks;
  check cf "paid for both" 3. r.Recovery_block.elapsed

let test_sequential_rollback_restores_sink_state () =
  let eng = mk_engine () in
  let model = Engine.model eng in
  let space = Address_space.create (Engine.frame_store eng) model in
  Address_space.set_int space ~addr:0 5;
  let rb =
    Recovery_block.make
      ~acceptance:(fun ctx _ -> get_int ctx 0 < 100)
      [
        Recovery_block.alternate ~name:"bad" (fun ctx ->
            set_int ctx 0 1000;
            0);
        Recovery_block.alternate ~name:"good" (fun ctx ->
            let v = get_int ctx 0 in
            set_int ctx 0 (v + 1);
            v);
      ]
  in
  let r = in_process ~space eng (fun ctx -> Recovery_block.run_sequential ctx rb) in
  check Alcotest.bool "good accepted with pristine view" true
    (r.Recovery_block.verdict = `Accepted (1, 5));
  check Alcotest.int "final state is good's write" 6
    (Address_space.get_int space ~addr:0)

let test_sequential_all_rejected () =
  let eng = mk_engine () in
  let rb =
    Recovery_block.make ~acceptance:accept_positive
      [ timed "a" 1. (-1); timed "b" 1. (-2) ]
  in
  let r = in_process eng (fun ctx -> Recovery_block.run_sequential ctx rb) in
  check Alcotest.bool "failed" true (r.Recovery_block.verdict = `Failed);
  check Alcotest.int "both rolled back" 2 r.Recovery_block.rollbacks

let test_sequential_crash_counts_as_rejection () =
  let eng = mk_engine () in
  let rb =
    Recovery_block.make ~acceptance:accept_positive
      [
        Recovery_block.alternate ~name:"raises" (fun _ ->
            raise (Alternative.Failed "logic error"));
        timed "backup" 1. 3;
      ]
  in
  let r = in_process eng (fun ctx -> Recovery_block.run_sequential ctx rb) in
  check Alcotest.bool "backup accepted" true (r.Recovery_block.verdict = `Accepted (1, 3))

let test_concurrent_fastest_accepted_wins () =
  let eng = mk_engine () in
  let rb =
    Recovery_block.make ~acceptance:accept_positive
      [ timed "slow-good" 5. 1; timed "fast-bad" 1. (-1); timed "mid-good" 2. 2 ]
  in
  let r = in_process eng (fun ctx -> Recovery_block.run_concurrent ctx rb) in
  check Alcotest.bool "fastest accepted version wins" true
    (r.Recovery_block.verdict = `Accepted (2, 2));
  check cf "its time" 2. r.Recovery_block.elapsed

let test_concurrent_faster_than_sequential_under_faults () =
  let rb () =
    Recovery_block.make ~acceptance:accept_positive
      [ timed "primary" 10. (-1); timed "secondary" 2. 5 ]
  in
  let eng = mk_engine () in
  let seq = in_process eng (fun ctx -> Recovery_block.run_sequential ctx (rb ())) in
  let eng = mk_engine () in
  let conc = in_process eng (fun ctx -> Recovery_block.run_concurrent ctx (rb ())) in
  check cf "sequential pays both" 12. seq.Recovery_block.elapsed;
  check cf "concurrent pays the good one" 2. conc.Recovery_block.elapsed;
  check Alcotest.bool "same verdict value" true
    (seq.Recovery_block.verdict = conc.Recovery_block.verdict)

let test_concurrent_all_rejected () =
  let eng = mk_engine () in
  let rb =
    Recovery_block.make ~acceptance:accept_positive [ timed "a" 1. (-1); timed "b" 2. 0 ]
  in
  let r = in_process eng (fun ctx -> Recovery_block.run_concurrent ctx rb) in
  check Alcotest.bool "failed" true (r.Recovery_block.verdict = `Failed)

let test_concurrent_distributed_policy () =
  let eng = mk_engine ~model:Cost_model.hp_9000_350 () in
  let rb =
    Recovery_block.make ~acceptance:accept_positive
      [ timed "v1" 0.5 1; timed "v2" 0.2 2 ]
  in
  let policy = Recovery_block.distributed_policy ~nodes:3 ~crashed:[ 0 ] () in
  let r = in_process eng (fun ctx -> Recovery_block.run_concurrent ctx ~policy rb) in
  check Alcotest.bool "works with a crashed sync node" true
    (r.Recovery_block.verdict = `Accepted (1, 2))

(* Regression: [run_concurrent] used to report
   [attempts = List.length rb.alternates], as if every version had run —
   but the whole point of the transformation is that the winner's
   elimination wave cuts the losers short. With one fast winner and two
   slow losers only the winner runs its version (and acceptance test) to
   a verdict, so [attempts] must be 1, not 3. *)
let test_concurrent_attempts_counts_finished_versions () =
  let eng = mk_engine () in
  let rb =
    Recovery_block.make ~acceptance:accept_positive
      [ timed "fast" 0.1 1; timed "slow-a" 5. 2; timed "slow-b" 5. 3 ]
  in
  let r = in_process eng (fun ctx -> Recovery_block.run_concurrent ctx rb) in
  check Alcotest.bool "fast version accepted" true
    (r.Recovery_block.verdict = `Accepted (0, 1));
  check Alcotest.int "only the winner ran to a verdict" 1
    r.Recovery_block.attempts;
  (* And when every version does finish (all rejected), they all count. *)
  let eng = mk_engine () in
  let rb =
    Recovery_block.make ~acceptance:accept_positive
      [ timed "a" 1. (-1); timed "b" 2. 0 ]
  in
  let r = in_process eng (fun ctx -> Recovery_block.run_concurrent ctx rb) in
  check Alcotest.int "all finished versions count" 2 r.Recovery_block.attempts

let test_to_alternatives_folds_acceptance () =
  let eng = mk_engine () in
  let rb = Recovery_block.make ~acceptance:accept_positive [ timed "neg" 0.1 (-5) ] in
  let alts = Recovery_block.to_alternatives rb in
  check Alcotest.int "one alternative" 1 (List.length alts);
  let outcome = in_process eng (fun ctx -> Alt_block.run_first ctx alts) in
  check Alcotest.bool "acceptance folded into alternative" true
    (match outcome with Alt_block.Block_failed _ -> true | _ -> false)

(* ---------------- Fault ---------------- *)

let test_fault_always_crash () =
  let eng = mk_engine () in
  let alt = Fault.always ~mode:Fault.Crash (timed "v" 1. 1) in
  let rb = Recovery_block.make ~acceptance:accept_positive [ alt; timed "ok" 1. 2 ] in
  let r = in_process eng (fun ctx -> Recovery_block.run_sequential ctx rb) in
  check Alcotest.bool "crashing version skipped" true
    (r.Recovery_block.verdict = `Accepted (1, 2))

(* Regression: [Wrong] without [~corrupt] must be rejected at wrap time.
   Pre-fix, [always]/[wrap] returned a seemingly valid alternate that only
   raised inside the child — indistinguishable from a failing version. *)
let test_fault_wrong_requires_corrupt () =
  let eager_always =
    try
      ignore (Fault.always ~mode:Fault.Wrong (timed "v" 1. 1));
      false
    with Invalid_argument _ -> true
  in
  check Alcotest.bool "always: corrupt required eagerly" true eager_always;
  let eager_wrap =
    let f = Fault.create ~seed:7 in
    try
      ignore (Fault.wrap f ~p:0.5 ~mode:Fault.Wrong (timed "v" 1. 1));
      false
    with Invalid_argument _ -> true
  in
  check Alcotest.bool "wrap: corrupt required eagerly" true eager_wrap

let test_fault_wrong_rejected_by_acceptance () =
  let eng = mk_engine () in
  let alt =
    Fault.always ~mode:Fault.Wrong ~corrupt:(fun v -> -v) (timed "v" 1. 5)
  in
  let rb = Recovery_block.make ~acceptance:accept_positive [ alt; timed "ok" 1. 9 ] in
  let r = in_process eng (fun ctx -> Recovery_block.run_sequential ctx rb) in
  check Alcotest.bool "corrupted result rejected" true
    (r.Recovery_block.verdict = `Accepted (1, 9))

let test_fault_slow () =
  let eng = mk_engine () in
  let alt = Fault.always ~mode:(Fault.Slow 3.) (timed "v" 1. 5) in
  let rb = Recovery_block.make ~acceptance:accept_positive [ alt ] in
  let r = in_process eng (fun ctx -> Recovery_block.run_sequential ctx rb) in
  check cf "slowdown added" 4. r.Recovery_block.elapsed

let test_fault_probability_deterministic () =
  let count_failures seed =
    let f = Fault.create ~seed in
    let failures = ref 0 in
    for _ = 1 to 100 do
      let eng = mk_engine () in
      let alt = Fault.wrap f ~p:0.5 ~mode:Fault.Crash (timed "v" 0.1 1) in
      let rb = Recovery_block.make ~acceptance:accept_positive [ alt ] in
      let r = in_process eng (fun ctx -> Recovery_block.run_sequential ctx rb) in
      if r.Recovery_block.verdict = `Failed then incr failures
    done;
    !failures
  in
  let a = count_failures 42 and b = count_failures 42 in
  check Alcotest.int "same seed, same pattern" a b;
  check Alcotest.bool "roughly half fail" true (a > 25 && a < 75)

let () =
  Alcotest.run "recovery"
    [
      ( "sequential",
        [
          Alcotest.test_case "make validations" `Quick test_make_validations;
          Alcotest.test_case "primary accepted" `Quick test_sequential_primary_accepted;
          Alcotest.test_case "fallback after rejection" `Quick
            test_sequential_fallback_after_rejection;
          Alcotest.test_case "rollback restores sink state" `Quick
            test_sequential_rollback_restores_sink_state;
          Alcotest.test_case "all rejected" `Quick test_sequential_all_rejected;
          Alcotest.test_case "crash counts as rejection" `Quick
            test_sequential_crash_counts_as_rejection;
        ] );
      ( "concurrent",
        [
          Alcotest.test_case "fastest accepted wins" `Quick
            test_concurrent_fastest_accepted_wins;
          Alcotest.test_case "beats sequential under faults" `Quick
            test_concurrent_faster_than_sequential_under_faults;
          Alcotest.test_case "all rejected" `Quick test_concurrent_all_rejected;
          Alcotest.test_case "attempts counts finished versions" `Quick
            test_concurrent_attempts_counts_finished_versions;
          Alcotest.test_case "distributed (consensus) policy" `Quick
            test_concurrent_distributed_policy;
          Alcotest.test_case "to_alternatives" `Quick test_to_alternatives_folds_acceptance;
        ] );
      ( "fault",
        [
          Alcotest.test_case "always crash" `Quick test_fault_always_crash;
          Alcotest.test_case "wrong requires corrupt" `Quick test_fault_wrong_requires_corrupt;
          Alcotest.test_case "wrong rejected by acceptance" `Quick
            test_fault_wrong_rejected_by_acceptance;
          Alcotest.test_case "slow mode" `Quick test_fault_slow;
          Alcotest.test_case "probabilistic, deterministic per seed" `Quick
            test_fault_probability_deterministic;
        ] );
    ]
