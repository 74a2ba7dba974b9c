(* Tests for deterministic fault injection (lib/faultplan) and for the
   timeout paths it exercises on the consensus protocol:
   [Engine.receive_timeout] under injected drop/delay, and
   [Engine.Ivar.read_timeout] while the filler is stalled on consensus. *)

let check = Alcotest.check

let mk () = Engine.create ~trace:true ~model:Cost_model.hp_9000_350 ()

let count_injected eng kind =
  Trace.count (Engine.trace eng) ~f:(function
    | Trace.Injected { kind = k; _ } -> String.equal k kind
    | _ -> false)

let verdict =
  Alcotest.testable
    (fun fmt v ->
      Format.pp_print_string fmt
        (match v with
        | Majority.Granted -> "Granted"
        | Majority.Denied -> "Denied"
        | Majority.No_quorum -> "No_quorum"))
    ( = )

let test_rule_validation () =
  Alcotest.check_raises "p above 1"
    (Invalid_argument "Faultplan.message: p not in [0,1]") (fun () ->
      ignore (Faultplan.message ~p:1.5 Faultplan.Drop));
  Alcotest.check_raises "p below 0"
    (Invalid_argument "Faultplan.message: p not in [0,1]") (fun () ->
      ignore (Faultplan.message ~p:(-0.1) Faultplan.Drop))

let test_empty_plan_injects_nothing () =
  let eng = mk () in
  let h = History.attach (Engine.trace eng) in
  Faultplan.install Faultplan.none eng;
  let m = Majority.create eng ~nodes:3 () in
  let got = ref None in
  ignore
    (Engine.spawn eng (fun ctx ->
         got := Some (Majority.acquire_retry ctx m ~reply_timeout:1. ());
         Majority.shutdown m));
  Engine.run eng;
  check (Alcotest.option verdict) "clean acquire" (Some Majority.Granted) !got;
  check Alcotest.int "no injections recorded" 0
    (List.length (History.injections h))

(* receive_timeout under injected drop: with every reply dropped the
   requester's per-reply wait must expire and the round must come back
   undecided — not hang, not be denied. *)
let test_dropped_replies_time_out_as_no_quorum () =
  let eng = mk () in
  Faultplan.install
    (Faultplan.make [ Faultplan.message ~tag:"vote_rep" Faultplan.Drop ])
    eng;
  let m = Majority.create eng ~nodes:3 () in
  let got = ref None in
  ignore
    (Engine.spawn eng (fun ctx ->
         got := Some (Majority.acquire_retry ctx m ~reply_timeout:0.1 ());
         Majority.shutdown m));
  Engine.run eng;
  check (Alcotest.option verdict) "undecided" (Some Majority.No_quorum) !got;
  check Alcotest.bool "drops recorded in the trace" true
    (count_injected eng "drop" >= 3)

(* receive_timeout under injected latency, plus retry/backoff recovery: a
   transient outage (replies reordered 0.5 s late, but only inside a
   window) defeats the first rounds, and the backed-off retry lands
   outside the window and wins. [Reorder] rather than [Delay]: a delayed
   message holds its channel's FIFO clock back, so one delayed round
   would stall every later reply on the same channel for the full 0.5 s
   — that behaviour is pinned down by the FIFO test below. *)
let test_reordered_replies_recover_by_retry () =
  let eng = mk () in
  Faultplan.install
    (Faultplan.make
       [
         Faultplan.message ~tag:"vote_rep" ~window:(0., 0.1)
           (Faultplan.Reorder 0.5);
       ])
    eng;
  let m = Majority.create eng ~nodes:3 () in
  let direct = ref None and retried = ref None in
  ignore
    (Engine.spawn eng (fun ctx ->
         direct := Some (Majority.acquire_retry ctx m ~reply_timeout:0.05 ());
         retried :=
           Some
             (Majority.acquire_retry ctx m ~reply_timeout:0.05 ~retries:3
                ~backoff:0.06 ());
         Majority.shutdown m));
  Engine.run eng;
  check (Alcotest.option verdict) "stalled round is undecided"
    (Some Majority.No_quorum) !direct;
  check (Alcotest.option verdict) "backed-off retry wins"
    (Some Majority.Granted) !retried;
  check Alcotest.bool "reorders recorded in the trace" true
    (count_injected eng "reorder" >= 3)

(* The two latency actions differ exactly in what they do to the
   per-channel FIFO clock: [Delay] holds the channel back (later sends
   queue behind the delayed message — order preserved), [Reorder] lets
   later messages overtake. *)
let run_two_sends action =
  let eng = mk () in
  Faultplan.install
    (Faultplan.make [ Faultplan.message ~tag:"slow" action ])
    eng;
  let order = ref [] in
  let receiver =
    Engine.spawn eng ~name:"sink" (fun ctx ->
        for _ = 1 to 2 do
          let m = Engine.receive ctx () in
          order := m.Message.tag :: !order
        done)
  in
  ignore
    (Engine.spawn eng ~name:"src" (fun ctx ->
         Engine.send ctx ~tag:"slow" receiver Payload.Unit;
         Engine.send ctx ~tag:"fast" receiver Payload.Unit));
  Engine.run eng;
  List.rev !order

let test_delay_keeps_fifo_reorder_breaks_it () =
  check
    (Alcotest.list Alcotest.string)
    "delay preserves channel order" [ "slow"; "fast" ]
    (run_two_sends (Faultplan.Delay 0.1));
  check
    (Alcotest.list Alcotest.string)
    "reorder lets the later message overtake" [ "fast"; "slow" ]
    (run_two_sends (Faultplan.Reorder 0.1))

(* Regression for the duplicated-reply tally bug. With 2 live voters of 5
   a majority (3) is out of reach; duplicating every reply used to tally
   the same voter twice — 4 manufactured "grants" — and acquire claimed a
   majority it does not hold. One voter, one vote. *)
let test_duplicated_replies_cannot_fake_majority () =
  let eng = mk () in
  Faultplan.install
    (Faultplan.make [ Faultplan.message ~tag:"vote_rep" Faultplan.Duplicate ])
    eng;
  let m = Majority.create eng ~nodes:5 ~crashed:[ 2; 3; 4 ] () in
  let got = ref None in
  ignore
    (Engine.spawn eng (fun ctx ->
         got := Some (Majority.acquire_retry ctx m ~reply_timeout:0.2 ());
         Majority.shutdown m));
  Engine.run eng;
  check (Alcotest.option verdict) "2 of 5 stays short of a majority"
    (Some Majority.No_quorum) !got;
  check Alcotest.bool "duplicates recorded in the trace" true
    (count_injected eng "duplicate" >= 2)

(* Ivar.read_timeout on the consensus path: the filler is stalled by a
   drop window, so an early bounded read must give up with None; once the
   window closes the filler's retry acquires and fills, and a blocking
   read sees the value. *)
let test_ivar_read_timeout_while_consensus_stalled () =
  let eng = mk () in
  Faultplan.install
    (Faultplan.make
       [ Faultplan.message ~tag:"vote_rep" ~window:(0., 0.2) Faultplan.Drop ])
    eng;
  let m = Majority.create eng ~nodes:3 () in
  let latch = Engine.Ivar.create () in
  let early = ref (Some 0) and late = ref None in
  ignore
    (Engine.spawn eng ~name:"filler" (fun ctx ->
         (match
            Majority.acquire_retry ctx m ~reply_timeout:0.05 ~retries:6
              ~backoff:0.05 ()
          with
         | Majority.Granted -> ignore (Engine.Ivar.try_fill latch 42)
         | _ -> ());
         Majority.shutdown m));
  ignore
    (Engine.spawn eng ~name:"waiter" (fun ctx ->
         early := Engine.Ivar.read_timeout ctx latch ~timeout:0.02;
         late := Some (Engine.Ivar.read ctx latch)));
  Engine.run eng;
  check
    (Alcotest.option Alcotest.int)
    "bounded read gives up while consensus is stalled" None !early;
  check
    (Alcotest.option Alcotest.int)
    "blocking read sees the post-outage fill" (Some 42) !late

let test_kill_rule_fires_once () =
  let eng = mk () in
  Faultplan.install
    (Faultplan.make [ Faultplan.kill_process ~after:0.05 "worker" ]) eng;
  let ticks = ref 0 in
  ignore
    (Engine.spawn eng ~name:"worker" (fun ctx ->
         for _ = 1 to 1000 do
           Engine.delay ctx 0.01;
           incr ticks
         done));
  Engine.run eng;
  check Alcotest.int "one kill injected" 1 (count_injected eng "kill");
  check Alcotest.bool "worker was cut short" true (!ticks < 1000);
  check Alcotest.bool "worker ran before the kill" true (!ticks >= 4)

(* A crashed voter is a healed partition, not an amnesiac: while silenced
   its traffic black-holes (undecided rounds), and after revival the
   semaphore works again. *)
let test_crash_then_revive_heals () =
  let eng = mk () in
  Faultplan.install
    (Faultplan.make
       [ Faultplan.crash_process ~revive_after:0.3 "voter0" ])
    eng;
  let m = Majority.create eng ~nodes:1 () in
  let during = ref None and after = ref None in
  ignore
    (Engine.spawn eng (fun ctx ->
         during := Some (Majority.acquire_retry ctx m ~reply_timeout:0.1 ());
         Engine.delay ctx 0.5;
         after := Some (Majority.acquire_retry ctx m ~reply_timeout:0.5 ());
         Majority.shutdown m));
  Engine.run eng;
  check (Alcotest.option verdict) "partitioned voter: undecided"
    (Some Majority.No_quorum) !during;
  check (Alcotest.option verdict) "healed voter grants"
    (Some Majority.Granted) !after;
  check Alcotest.int "crash recorded" 1 (count_injected eng "crash");
  check Alcotest.int "revival recorded" 1 (count_injected eng "revive")

(* The determinism contract: same (plan seed, engine seed, program) must
   reproduce the same injections, byte for byte. *)
let test_same_seeds_same_injections () =
  let run () =
    let eng =
      Engine.create ~trace:true ~model:Cost_model.hp_9000_350 ~seed:7 ()
    in
    let h = History.attach (Engine.trace eng) in
    Faultplan.install
      (Faultplan.make ~seed:11
         [ Faultplan.message ~p:0.5 ~tag:"vote_rep" Faultplan.Drop ])
      eng;
    let m = Majority.create eng ~nodes:5 () in
    ignore
      (Engine.spawn eng (fun ctx ->
           ignore
             (Majority.acquire_retry ctx m ~reply_timeout:0.05 ~retries:2
                ~backoff:0.02 ());
           Majority.shutdown m));
    Engine.run eng;
    ( List.map
        (fun (kind, _, msg) ->
          (kind, Option.map (fun m -> m.Message.tag) msg))
        (History.injections h),
      Engine.now eng )
  in
  let i1, t1 = run () and i2, t2 = run () in
  check Alcotest.bool "identical injection sequences" true (i1 = i2);
  check (Alcotest.float 0.) "identical final virtual time" t1 t2;
  check Alcotest.bool "the p=0.5 stream did fire" true (List.length i1 > 0)

(* Regression for F_duplicate end to end, under a drop+duplicate fault
   plan with the online sanitizer attached: the duplicate copies share
   one immutable message value, so neither physical-identity dedup
   (what [Mailbox.copy_excluding] uses for world splits) nor the
   per-sender reply tally in [Majority] can be defeated, and the
   sanitizer's frame-ownership / happens-before tracking must not
   misattribute the shared value — its verdict has to agree with the
   post-mortem oracle on every checked class (any disagreement is an
   exit-17 [Report.Sanitizer] divergence from [run_checked]). *)
let test_sanitized_drop_duplicate_plan_stays_clean () =
  let policy =
    {
      Concurrent.default_policy with
      sync =
        Concurrent.Consensus
          { nodes = 3; crashed = []; vote_delay = 0.0002; reply_timeout = 0.5 };
      sync_retries = 3;
      sync_backoff = 0.02;
    }
  in
  let faults =
    Faultplan.make ~seed:13
      [
        Faultplan.message ~p:0.3 ~tag:"vote_rep" Faultplan.Drop;
        Faultplan.message ~tag:"vote_rep" Faultplan.Duplicate;
        Faultplan.message ~p:0.5 ~tag:"vote_req" Faultplan.Duplicate;
      ]
  in
  List.iter
    (fun sc_name ->
      let sc = Option.get (Invariants.find_scenario sc_name) in
      List.iter
        (fun seed ->
          let rr, vs =
            Invariants.run_checked ~faults ~sanitize:true sc ~policy ~seed
          in
          check Alcotest.int
            (Printf.sprintf "%s seed %d: no violations, no divergence" sc_name
               seed)
            0 (List.length vs);
          check Alcotest.bool
            (Printf.sprintf "%s seed %d: the plan did inject" sc_name seed)
            true
            (History.faulted rr.Invariants.history))
        [ 1; 2; 3 ])
    [ "counters"; "guarded" ]

let () =
  Alcotest.run "faultplan"
    [
      ( "faultplan",
        [
          Alcotest.test_case "rule validation" `Quick test_rule_validation;
          Alcotest.test_case "empty plan is transparent" `Quick
            test_empty_plan_injects_nothing;
          Alcotest.test_case "dropped replies time out as no-quorum" `Quick
            test_dropped_replies_time_out_as_no_quorum;
          Alcotest.test_case "reordered replies recover by retry" `Quick
            test_reordered_replies_recover_by_retry;
          Alcotest.test_case "delay keeps FIFO, reorder breaks it" `Quick
            test_delay_keeps_fifo_reorder_breaks_it;
          Alcotest.test_case "duplicated replies cannot fake a majority"
            `Quick test_duplicated_replies_cannot_fake_majority;
          Alcotest.test_case "ivar read_timeout under a drop window" `Quick
            test_ivar_read_timeout_while_consensus_stalled;
          Alcotest.test_case "kill rule fires once" `Quick
            test_kill_rule_fires_once;
          Alcotest.test_case "crash then revive heals" `Quick
            test_crash_then_revive_heals;
          Alcotest.test_case "same seeds, same injections" `Quick
            test_same_seeds_same_injections;
          Alcotest.test_case "sanitized drop+duplicate plan stays clean"
            `Quick test_sanitized_drop_duplicate_plan_stays_clean;
        ] );
    ]
