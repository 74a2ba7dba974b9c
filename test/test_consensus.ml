(* Tests for the majority-consensus 0-1 semaphore (section 3.2.1). *)

let check = Alcotest.check

let mk () = Engine.create ~trace:false ~model:Cost_model.hp_9000_350 ()

(* One acquisition round, as a bool. *)
let acquired ctx m ~reply_timeout =
  Majority.acquire_retry ctx m ~reply_timeout () = Majority.Granted

let test_create_validations () =
  let eng = mk () in
  Alcotest.check_raises "nodes >= 1"
    (Invalid_argument "Majority.create: nodes must be >= 1") (fun () ->
      ignore (Majority.create eng ~nodes:0 ()));
  (* A round tallies its replies in an int bitmask over the voters. *)
  Alcotest.check_raises "nodes fit a bitmask"
    (Invalid_argument
       (Printf.sprintf "Majority.create: nodes must be at most %d" (Sys.int_size - 1)))
    (fun () -> ignore (Majority.create eng ~nodes:Sys.int_size ()));
  let m = Majority.create eng ~nodes:5 () in
  check Alcotest.int "pids spawned" 5 (Array.length (Majority.node_pids m))

let test_single_requester_acquires () =
  let eng = mk () in
  let m = Majority.create eng ~nodes:3 () in
  let got = ref false in
  ignore
    (Engine.spawn eng (fun ctx ->
         got := acquired ctx m ~reply_timeout:1.;
         Majority.shutdown m));
  Engine.run eng;
  check Alcotest.bool "acquired" true !got

let test_exclusive_between_two () =
  (* Whatever the interleaving, at most one of two competing requesters may
     win. Stagger the second one across several offsets. *)
  List.iter
    (fun offset ->
      let eng = mk () in
      let m = Majority.create eng ~nodes:3 () in
      let r1 = ref None and r2 = ref None in
      ignore
        (Engine.spawn eng (fun ctx ->
             r1 := Some (acquired ctx m ~reply_timeout:1.)));
      ignore
        (Engine.spawn eng ~start_delay:offset (fun ctx ->
             r2 := Some (acquired ctx m ~reply_timeout:1.)));
      Engine.run eng;
      match (!r1, !r2) with
      | Some a, Some b ->
        if a && b then Alcotest.failf "both won at offset %g" offset;
        if not (a || b) then Alcotest.failf "nobody won at offset %g" offset
      | _ -> Alcotest.fail "requester never finished")
    [ 0.; 0.001; 0.004; 0.01; 0.5 ]

let test_survives_minority_crash () =
  let eng = mk () in
  let m = Majority.create eng ~nodes:5 ~crashed:[ 0; 4 ] () in
  let got = ref false in
  ignore
    (Engine.spawn eng (fun ctx ->
         got := acquired ctx m ~reply_timeout:0.5;
         Majority.shutdown m));
  Engine.run eng;
  check Alcotest.bool "2 of 5 crashed: still acquirable" true !got

let test_majority_crash_blocks_all () =
  let eng = mk () in
  let m = Majority.create eng ~nodes:5 ~crashed:[ 0; 1; 2 ] () in
  let got = ref true in
  ignore
    (Engine.spawn eng (fun ctx ->
         got := acquired ctx m ~reply_timeout:0.2;
         Majority.shutdown m));
  Engine.run eng;
  check Alcotest.bool "3 of 5 crashed: unacquirable" false !got

let test_reacquire_idempotent () =
  let eng = mk () in
  let m = Majority.create eng ~nodes:3 () in
  let seq = ref [] in
  ignore
    (Engine.spawn eng (fun ctx ->
         seq := acquired ctx m ~reply_timeout:1. :: !seq;
         seq := acquired ctx m ~reply_timeout:1. :: !seq;
         Majority.shutdown m));
  Engine.run eng;
  check Alcotest.(list bool) "both acquisitions granted" [ true; true ] !seq

let test_owner_visible () =
  let eng = mk () in
  let m = Majority.create eng ~nodes:3 () in
  let winner = ref None in
  let pid =
    Engine.spawn eng (fun ctx ->
        if acquired ctx m ~reply_timeout:1. then
          winner := Some (Engine.self ctx);
        Majority.shutdown m)
  in
  Engine.run eng;
  check Alcotest.bool "owner matches winner" true
    (Majority.owner m = Some pid && !winner = Some pid)

let test_message_accounting () =
  let eng = mk () in
  let m = Majority.create eng ~nodes:3 () in
  ignore
    (Engine.spawn eng (fun ctx ->
         ignore (Majority.acquire_retry ctx m ~reply_timeout:1. ());
         Majority.shutdown m));
  Engine.run eng;
  (* 3 requests + 3 replies handled by live voters. *)
  check Alcotest.int "six protocol messages" 6 (Majority.messages_sent m)

let test_vote_delay_slows_acquire () =
  let run_with delay =
    let eng = mk () in
    let m = Majority.create eng ~nodes:3 ~vote_delay:delay () in
    let t = ref 0. in
    ignore
      (Engine.spawn eng (fun ctx ->
           ignore (Majority.acquire_retry ctx m ~reply_timeout:5. ());
           t := Engine.now_v ctx;
           Majority.shutdown m));
    Engine.run eng;
    !t
  in
  check Alcotest.bool "vote processing delays acquisition" true
    (run_with 0.05 > run_with 0. +. 0.04)

(* Regression for the stale-reply bug. 2 live voters of 5 can never be a
   majority, however often the requester retries. Before the round-id
   fix, the retried round consumed the previous round's queued
   grants AND the current round's — tallying voters 0 and 1 twice, i.e.
   4 "grants" >= 3 — and won a majority it does not hold. *)
let test_retry_after_timeout_cannot_win_lost_majority () =
  let eng = mk () in
  let m =
    Majority.create eng ~nodes:5 ~crashed:[ 2; 3; 4 ] ~vote_delay:0.3 ()
  in
  let first = ref None and second = ref None in
  ignore
    (Engine.spawn eng (fun ctx ->
         (* Votes take ~0.3 s; a 0.1 s reply timeout expires first, so
            this round's two grants arrive after the caller gave up. *)
         first := Some (acquired ctx m ~reply_timeout:0.1);
         Engine.delay ctx 1.0;
         (* The stale grants now sit in the mailbox. Retry with a window
            long enough to also collect this round's fresh grants. *)
         second := Some (acquired ctx m ~reply_timeout:0.5);
         Majority.shutdown m));
  Engine.run eng;
  check Alcotest.(option bool) "first acquire times out" (Some false) !first;
  check Alcotest.(option bool)
    "retry must not double-count voters into a majority" (Some false) !second;
  check Alcotest.bool "no owner" true (Majority.owner m = None)

(* The flip side: a retry against a live majority must still succeed once
   the voters are given time to answer (a timed-out acquire is safely
   retryable, not poisoned). *)
let test_retry_after_timeout_succeeds_with_live_majority () =
  let eng = mk () in
  let m = Majority.create eng ~nodes:3 ~vote_delay:0.3 () in
  let first = ref None and second = ref None in
  let pid =
    Engine.spawn eng (fun ctx ->
        first := Some (acquired ctx m ~reply_timeout:0.1);
        Engine.delay ctx 1.0;
        second := Some (acquired ctx m ~reply_timeout:5.);
        Majority.shutdown m)
  in
  Engine.run eng;
  check Alcotest.(option bool) "first acquire times out" (Some false) !first;
  check Alcotest.(option bool) "retry wins" (Some true) !second;
  check Alcotest.bool "owner is the requester" true
    (Majority.owner m = Some pid)

let verdict =
  Alcotest.testable
    (fun fmt v ->
      Format.pp_print_string fmt
        (match v with
        | Majority.Granted -> "Granted"
        | Majority.Denied -> "Denied"
        | Majority.No_quorum -> "No_quorum"))
    ( = )

(* Regression for the malformed-request asymmetry. The voter used to
   parse a request's round with a default of 0 for unparseable payloads,
   so a garbled request was treated as round 0 and GRANTED — consuming
   the durable half of the 0-1 semaphore — while the requester side
   mapped the same garbage to -1 and would never have counted the reply.
   With a single voter, one rogue garbled request starved every genuine
   requester forever. The voter must reject what the requester side
   rejects. *)
let test_malformed_request_does_not_consume_grant () =
  let eng = mk () in
  let m = Majority.create eng ~nodes:1 () in
  let voter = (Majority.node_pids m).(0) in
  let got = ref None in
  (* The rogue fires first: two differently-garbled requests. *)
  ignore
    (Engine.spawn eng ~name:"rogue" (fun ctx ->
         Engine.send ctx ~tag:"vote_req" voter (Payload.Str "junk");
         Engine.send ctx ~tag:"vote_req" voter (Payload.Int (-1))));
  ignore
    (Engine.spawn eng ~name:"genuine" ~start_delay:0.01 (fun ctx ->
         got := Some (Majority.acquire_retry ctx m ~reply_timeout:1. ());
         Majority.shutdown m));
  Engine.run eng;
  check (Alcotest.option verdict) "garbled requests never hold the vote"
    (Some Majority.Granted) !got

let test_verdict_denied_is_final () =
  let eng = mk () in
  let m = Majority.create eng ~nodes:3 () in
  let winner = ref None and loser = ref None in
  ignore
    (Engine.spawn eng (fun ctx ->
         winner := Some (Majority.acquire_retry ctx m ~reply_timeout:1. ())));
  ignore
    (Engine.spawn eng ~start_delay:0.5 (fun ctx ->
         (* The semaphore is owned by now: every voter answers promptly
            with a denial — this is [Denied], not a quorum problem, and
            retrying must not burn backoff time on it. *)
         loser :=
           Some
             (Majority.acquire_retry ctx m ~reply_timeout:1. ~retries:3
                ~backoff:10. ());
         Majority.shutdown m));
  Engine.run eng;
  check (Alcotest.option verdict) "first requester wins" (Some Majority.Granted)
    !winner;
  check (Alcotest.option verdict) "second is denied" (Some Majority.Denied)
    !loser;
  (* 3 retries at backoff 10 would push past t = 10; a final verdict
     returns immediately instead. *)
  check Alcotest.bool "denial did not trigger backoff" true
    (Engine.now eng < 5.)

let test_retry_never_overruns_deadline () =
  (* Deadline propagation into the retry backoff: a requester facing a
     silent majority must stop retrying as soon as the next round could
     not finish inside its request deadline. The control run below is
     the pre-fix behaviour — the same retry schedule without a deadline
     burns through every backoff round, far past the budget the serving
     layer granted the request. *)
  let deadline = 0.5 in
  let run_with ?deadline () =
    let eng = mk () in
    let m = Majority.create eng ~nodes:3 ~crashed:[ 0; 1 ] () in
    let got = ref None and finished = ref 0. in
    ignore
      (Engine.spawn eng (fun ctx ->
           got :=
             Some
               (Majority.acquire_retry ctx m ?deadline ~reply_timeout:0.2
                  ~retries:5 ~backoff:0.1 ());
           finished := Engine.now_v ctx;
           Majority.shutdown m));
    Engine.run eng;
    (!got, !finished)
  in
  let bounded, t_bounded = run_with ~deadline () in
  check (Alcotest.option verdict) "honest verdict: still no quorum"
    (Some Majority.No_quorum) bounded;
  check Alcotest.bool "gave up within the request deadline" true
    (t_bounded <= deadline);
  let unbounded, t_unbounded = run_with () in
  check (Alcotest.option verdict) "control also ends in no-quorum"
    (Some Majority.No_quorum) unbounded;
  check Alcotest.bool
    "without the deadline the retry schedule overruns the budget" true
    (t_unbounded > deadline)

let test_verdict_no_quorum_when_majority_silent () =
  let eng = mk () in
  let m = Majority.create eng ~nodes:3 ~crashed:[ 0; 1 ] () in
  let got = ref None in
  ignore
    (Engine.spawn eng (fun ctx ->
         got := Some (Majority.acquire_retry ctx m ~reply_timeout:0.2 ());
         Majority.shutdown m));
  Engine.run eng;
  check (Alcotest.option verdict)
    "2 of 3 silent: undecided, not denied" (Some Majority.No_quorum) !got

let test_speculative_requesters_do_not_split_voters () =
  (* The voters are oblivious: requests from speculative alternatives (with
     non-trivial predicates) must not spawn voter worlds. *)
  let eng = Engine.create ~trace:true ~model:Cost_model.hp_9000_350 () in
  let m = Majority.create eng ~nodes:3 () in
  let pids = Array.to_list (Engine.fresh_pids eng 2) in
  let a = List.nth pids 0 and b = List.nth pids 1 in
  let wins = ref 0 in
  let spawn_child pid other =
    ignore
      (Engine.spawn eng ~pid
         ~predicate:
           (Predicate.make ~must_complete:[ pid ] ~must_fail:[ other ])
         (fun ctx ->
           if acquired ctx m ~reply_timeout:1. then incr wins))
  in
  spawn_child a b;
  spawn_child b a;
  Engine.run eng;
  check Alcotest.int "exactly one winner" 1 !wins;
  check Alcotest.int "no voter splits" 0
    (Trace.count (Engine.trace eng) ~f:(function
      | Trace.Split _ -> true
      | _ -> false))

let () =
  Alcotest.run "consensus"
    [
      ( "majority",
        [
          Alcotest.test_case "creation and arithmetic" `Quick test_create_validations;
          Alcotest.test_case "single requester acquires" `Quick test_single_requester_acquires;
          Alcotest.test_case "mutual exclusion" `Quick test_exclusive_between_two;
          Alcotest.test_case "survives minority crash" `Quick test_survives_minority_crash;
          Alcotest.test_case "majority crash blocks all" `Quick test_majority_crash_blocks_all;
          Alcotest.test_case "reacquire is idempotent" `Quick test_reacquire_idempotent;
          Alcotest.test_case "owner visible" `Quick test_owner_visible;
          Alcotest.test_case "message accounting" `Quick test_message_accounting;
          Alcotest.test_case "vote delay" `Quick test_vote_delay_slows_acquire;
          Alcotest.test_case "stale replies cannot fake a majority" `Quick
            test_retry_after_timeout_cannot_win_lost_majority;
          Alcotest.test_case "timed-out acquire is retryable" `Quick
            test_retry_after_timeout_succeeds_with_live_majority;
          Alcotest.test_case "speculative requesters, oblivious voters" `Quick
            test_speculative_requesters_do_not_split_voters;
          Alcotest.test_case "malformed request cannot hold the vote" `Quick
            test_malformed_request_does_not_consume_grant;
          Alcotest.test_case "denied is final, skips backoff" `Quick
            test_verdict_denied_is_final;
          Alcotest.test_case "retries never overrun the request deadline"
            `Quick test_retry_never_overruns_deadline;
          Alcotest.test_case "silent majority is no-quorum" `Quick
            test_verdict_no_quorum_when_majority_silent;
        ] );
    ]
