(* Tests for the real-OS runtime: forked racing and COW measurement. These
   exercise Unix.fork, pipes and signals for real. *)

let check = Alcotest.check

let test_fastest_wins () =
  match
    Fork_race.run ~timeout:30.
      [
        (fun () -> Unix.sleepf 0.3; "slow");
        (fun () -> Unix.sleepf 0.02; "fast");
      ]
  with
  | Fork_race.Winner { index; value; elapsed } ->
    check Alcotest.int "index" 1 index;
    check Alcotest.string "value" "fast" value;
    check Alcotest.bool "did not wait for the slow one" true (elapsed < 0.25)
  | _ -> Alcotest.fail "expected a winner"

let test_failed_alternative_not_selected () =
  match
    Fork_race.run ~timeout:30.
      [
        (fun () -> failwith "instant but broken");
        (fun () -> Unix.sleepf 0.05; 42);
      ]
  with
  | Fork_race.Winner { index; value; _ } ->
    check Alcotest.int "survivor wins" 1 index;
    check Alcotest.int "value" 42 value
  | _ -> Alcotest.fail "expected a winner"

let test_all_failed () =
  match
    Fork_race.run ~timeout:30.
      [ (fun () -> failwith "a" : unit -> int); (fun () -> exit 3) ]
  with
  | Fork_race.All_failed _ -> ()
  | _ -> Alcotest.fail "expected all-failed"

let test_timeout_kills_children () =
  let t0 = Unix.gettimeofday () in
  (match Fork_race.run ~timeout:0.2 [ (fun () -> Unix.sleepf 30.; 0) ] with
  | Fork_race.Timed_out { elapsed } ->
    check Alcotest.bool "returned at the deadline" true (elapsed < 1.0)
  | _ -> Alcotest.fail "expected timeout");
  check Alcotest.bool "no 30s wait" true (Unix.gettimeofday () -. t0 < 2.)

let test_structured_values_cross_the_pipe () =
  let v = [ (1, "one"); (2, "two") ] in
  match Fork_race.run ~timeout:30. [ (fun () -> v) ] with
  | Fork_race.Winner { value; _ } ->
    check Alcotest.bool "marshalled intact" true (value = v)
  | _ -> Alcotest.fail "expected a winner"

let test_child_isolation () =
  (* A child's mutation of inherited OCaml state must be invisible here. *)
  let cell = ref 1 in
  (match
     Fork_race.run ~timeout:30.
       [ (fun () -> cell := 999; !cell) ]
   with
  | Fork_race.Winner { value = 999; _ } -> ()
  | _ -> Alcotest.fail "child sees its own write");
  check Alcotest.int "parent unaffected (COW isolation)" 1 !cell

let test_empty_rejected () =
  Alcotest.check_raises "empty" (Invalid_argument "Fork_race.run: empty list")
    (fun () -> ignore (Fork_race.run ([] : (unit -> int) list)))

let test_many_alternatives () =
  match
    Fork_race.run ~timeout:60.
      (List.init 8 (fun i () ->
           Unix.sleepf (0.02 +. (0.05 *. float_of_int (7 - i)));
           i))
  with
  | Fork_race.Winner { value; _ } -> check Alcotest.int "cheapest sleep wins" 7 value
  | _ -> Alcotest.fail "expected a winner"

(* ---------------- Measure ---------------- *)

let test_fork_latency_sane () =
  let s = Measure.fork_latency ~iters:10 () in
  check Alcotest.int "ten samples" 10 s.Stats.n;
  check Alcotest.bool "positive and sub-second" true
    (s.Stats.median > 0. && s.Stats.median < 1.)

let test_fork_latency_validation () =
  Alcotest.check_raises "iters > 0" (Invalid_argument "Measure: iters must be positive")
    (fun () -> ignore (Measure.fork_latency ~iters:0 ()))

let test_cow_touch_fraction_validation () =
  Alcotest.check_raises "fraction range"
    (Invalid_argument "Measure.cow_touch_time: fraction out of range") (fun () ->
      ignore (Measure.cow_touch_time ~pages:4 ~fraction:1.5 ~iters:1 ()))

let test_cow_touch_monotone_in_fraction () =
  (* Medians over a few iterations: touching everything must not be cheaper
     than touching nothing (allow generous noise). *)
  let base = (Measure.cow_touch_time ~pages:4096 ~fraction:0. ~iters:7 ()).Stats.median in
  let full = (Measure.cow_touch_time ~pages:4096 ~fraction:1. ~iters:7 ()).Stats.median in
  check Alcotest.bool "full touch costs at least as much" true (full >= base *. 0.8)

let test_page_copy_rate_positive () =
  let rate = Measure.page_copy_rate ~pages:1024 ~iters:5 () in
  check Alcotest.bool "positive" true (rate > 0.)

let () =
  Alcotest.run "osrun"
    [
      ( "fork_race",
        [
          Alcotest.test_case "fastest wins" `Quick test_fastest_wins;
          Alcotest.test_case "failures not selected" `Quick
            test_failed_alternative_not_selected;
          Alcotest.test_case "all failed" `Quick test_all_failed;
          Alcotest.test_case "timeout kills children" `Quick test_timeout_kills_children;
          Alcotest.test_case "structured values" `Quick test_structured_values_cross_the_pipe;
          Alcotest.test_case "child isolation" `Quick test_child_isolation;
          Alcotest.test_case "empty rejected" `Quick test_empty_rejected;
          Alcotest.test_case "many alternatives" `Slow test_many_alternatives;
        ] );
      ( "measure",
        [
          Alcotest.test_case "fork latency" `Quick test_fork_latency_sane;
          Alcotest.test_case "latency validation" `Quick test_fork_latency_validation;
          Alcotest.test_case "fraction validation" `Quick test_cow_touch_fraction_validation;
          Alcotest.test_case "cow monotone in fraction" `Slow
            test_cow_touch_monotone_in_fraction;
          Alcotest.test_case "copy rate positive" `Slow test_page_copy_rate_positive;
        ] );
    ]
