(* Tests for source devices: gating of non-idempotent side effects on
   predicate resolution (sections 3.1 and 3.4.2). *)

let check = Alcotest.check

let mk () = Engine.create ~trace:false ()

let lines src = List.map (fun (_, _, l) -> l) (Source.output src)

let test_certain_write_immediate () =
  let eng = mk () in
  let tty = Source.create eng ~name:"tty" in
  ignore (Engine.spawn eng (fun ctx -> Source.write ctx tty "hello"));
  Engine.run eng;
  check Alcotest.(list string) "emitted" [ "hello" ] (lines tty);
  check Alcotest.int "nothing pending" 0 (List.length (Source.pending tty))

let speculative_writer eng tty ~succeeds lines_to_write =
  let pid = (Engine.fresh_pids eng 1).(0) in
  ignore
    (Engine.spawn eng ~pid
       ~predicate:(Predicate.make ~must_complete:[ pid ] ~must_fail:[])
       (fun ctx ->
         List.iter (fun l -> Source.write ctx tty l) lines_to_write;
         Engine.delay ctx 1.;
         if not succeeds then Engine.abort ctx "speculation failed"));
  pid

let test_speculative_write_buffered_then_flushed () =
  let eng = mk () in
  let tty = Source.create eng ~name:"tty" in
  let _pid = speculative_writer eng tty ~succeeds:true [ "a"; "b" ] in
  (* Before resolution the lines are pending, not emitted. *)
  Engine.run_for eng 0.5;
  check Alcotest.(list string) "nothing emitted yet" [] (lines tty);
  check Alcotest.int "buffered" 1 (List.length (Source.pending tty));
  Engine.run eng;
  check Alcotest.(list string) "flushed in order" [ "a"; "b" ] (lines tty);
  check Alcotest.int "discards" 0 (Source.discarded tty)

let test_speculative_write_discarded_on_death () =
  let eng = mk () in
  let tty = Source.create eng ~name:"tty" in
  let _pid = speculative_writer eng tty ~succeeds:false [ "x"; "y"; "z" ] in
  Engine.run eng;
  check Alcotest.(list string) "losing world leaves no trace" [] (lines tty);
  check Alcotest.int "three lines discarded" 3 (Source.discarded tty)

let test_two_worlds_one_trace () =
  (* Two mutually exclusive alternatives both write; only the winner's
     output appears. *)
  let eng = mk () in
  let tty = Source.create eng ~name:"tty" in
  let pids = Array.to_list (Engine.fresh_pids eng 2) in
  let a = List.nth pids 0 and b = List.nth pids 1 in
  let spawn_alt pid other line ~wins =
    ignore
      (Engine.spawn eng ~pid
         ~predicate:(Predicate.make ~must_complete:[ pid ] ~must_fail:[ other ])
         (fun ctx ->
           Source.write ctx tty line;
           Engine.delay ctx 1.;
           if not wins then Engine.abort ctx "lost"))
  in
  spawn_alt a b "from A" ~wins:true;
  spawn_alt b a "from B" ~wins:false;
  Engine.run eng;
  check Alcotest.(list string) "only winner's line" [ "from A" ] (lines tty)

let test_flush_order_with_certain_write () =
  (* Buffered speculative lines must precede a later line written after the
     process becomes certain. *)
  let eng = mk () in
  let tty = Source.create eng ~name:"tty" in
  let dep = (Engine.fresh_pids eng 1).(0) in
  ignore
    (Engine.spawn eng
       ~predicate:(Predicate.make ~must_complete:[ dep ] ~must_fail:[])
       (fun ctx ->
         Source.write ctx tty "early";
         (* Wait until dep resolves, then write again, now certain. *)
         Engine.delay ctx 5.;
         Source.write ctx tty "late"));
  ignore (Engine.spawn eng ~pid:dep (fun ctx -> Engine.delay ctx 1.));
  Engine.run eng;
  check Alcotest.(list string) "order preserved" [ "early"; "late" ] (lines tty)

let test_read_script_and_eof () =
  let eng = mk () in
  let dev = Source.create eng ~name:"input" in
  Source.feed dev [ "one"; "two" ];
  let got = ref [] in
  let failed = ref false in
  ignore
    (Engine.spawn eng (fun ctx ->
         let first = Source.read ctx dev in
         let second = Source.read ctx dev in
         got := [ first; second ];
         try ignore (Source.read ctx dev)
         with End_of_file -> failed := true));
  Engine.run eng;
  check Alcotest.(list string) "script consumed in order" [ "one"; "two" ] !got;
  check Alcotest.bool "EOF raised" true !failed

let test_read_buffered_for_idempotence () =
  (* Two processes reading the same positions see the same values, and the
     script is consumed only once per position. *)
  let eng = mk () in
  let dev = Source.create eng ~name:"input" in
  Source.feed dev [ "v0"; "v1" ];
  let a = ref [] and b = ref [] in
  let read_two ctx =
    let first = Source.read ctx dev in
    let second = Source.read ctx dev in
    [ first; second ]
  in
  ignore (Engine.spawn eng (fun ctx -> a := read_two ctx));
  ignore (Engine.spawn eng ~start_delay:1. (fun ctx -> b := read_two ctx));
  Engine.run eng;
  check Alcotest.(list string) "first reader" [ "v0"; "v1" ] !a;
  check Alcotest.(list string) "second reader sees the same data" [ "v0"; "v1" ] !b

let test_output_records_time_and_pid () =
  let eng = mk () in
  let tty = Source.create eng ~name:"tty" in
  let pid =
    Engine.spawn eng (fun ctx ->
        Engine.delay ctx 2.;
        Source.write ctx tty "stamped")
  in
  Engine.run eng;
  match Source.output tty with
  | [ (t, p, "stamped") ] ->
    check (Alcotest.float 1e-9) "time" 2. t;
    check Alcotest.bool "pid" true (Pid.equal p pid)
  | _ -> Alcotest.fail "expected exactly one stamped line"

let () =
  Alcotest.run "sources"
    [
      ( "source",
        [
          Alcotest.test_case "certain write immediate" `Quick test_certain_write_immediate;
          Alcotest.test_case "speculative write buffered then flushed" `Quick
            test_speculative_write_buffered_then_flushed;
          Alcotest.test_case "speculative write discarded on death" `Quick
            test_speculative_write_discarded_on_death;
          Alcotest.test_case "two worlds, one trace" `Quick test_two_worlds_one_trace;
          Alcotest.test_case "flush order with later certain write" `Quick
            test_flush_order_with_certain_write;
          Alcotest.test_case "read script and EOF" `Quick test_read_script_and_eof;
          Alcotest.test_case "reads buffered for idempotence" `Quick
            test_read_buffered_for_idempotence;
          Alcotest.test_case "output records time and pid" `Quick
            test_output_records_time_and_pid;
        ] );
    ]
