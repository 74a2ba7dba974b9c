(* Tests for altsan: the online happens-before sanitizer. Each corruption
   is seeded while the sanitizer watches, so the tests prove the flags are
   raised *at the offending event* (with virtual-time/pid coordinates),
   and cross-validated against the post-mortem oracle. *)

let check = Alcotest.check

let has_class cls flags =
  List.exists (fun f -> f.Sanitizer.sf_class = cls) flags

let oracle_has cls vs = List.exists (fun v -> v.Report.check = cls) vs

(* The rendered violations of each seeded corruption, pinned: the clean
   matrices never reach these paths, so no digest guards them. *)
let pinned_violations label expected sz =
  check
    Alcotest.(list string)
    label expected
    (List.map
       (fun v -> Report.class_name v.Report.check ^ " " ^ v.Report.detail)
       (Sanitizer.violations sz ~scenario:"s" ~policy:"p" ~seed:0))

(* ---------------- uncertain source emission, caught at emission ------- *)

(* A speculative alternative writes the teletype and then forces a device
   flush before its predicates resolve — the paper's forbidden
   source-interaction, seeded deliberately. *)
let rogue_teletype : Invariants.scenario =
  {
    Invariants.sc_name = "rogue-teletype";
    uses_source = true;
    source_script = [];
    prepare = (fun _ _ -> ());
    alts =
      (fun _eng ~seed:_ ~source ->
        let src = Option.get source in
        [
          Alternative.make ~name:"rogue" (fun ctx ->
              Engine.delay ctx 0.002;
              Source.write ctx src "rogue output";
              Source.force_flush src (Engine.self ctx);
              Engine.delay ctx 0.001;
              0);
          Alternative.make ~name:"slow" (fun ctx ->
              Engine.delay ctx 0.01;
              1);
        ]);
  }

let test_emission_caught_online () =
  let rr, violations =
    Invariants.run_checked ~sanitize:true rogue_teletype
      ~policy:Concurrent.default_policy ~seed:1
  in
  let sz = Option.get rr.Invariants.sanitizer in
  let flags = Sanitizer.flags sz in
  check Alcotest.bool "sanitizer flagged the emission" true
    (has_class Report.Sources flags);
  let f = List.find (fun f -> f.Sanitizer.sf_class = Report.Sources) flags in
  check Alcotest.bool "flag carries the virtual time" true
    (f.Sanitizer.sf_time > 0.);
  check Alcotest.bool "flag names the offending pid" true
    (f.Sanitizer.sf_pid <> None);
  (* The rendered violation exposes the exact coordinates. *)
  let rendered =
    Sanitizer.violations sz ~scenario:"rogue-teletype" ~policy:"p" ~seed:1
  in
  let contains hay needle =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
    in
    go 0
  in
  let v = List.find (fun v -> v.Report.check = Report.Sources) rendered in
  check Alcotest.bool "detail has [t=...]" true (contains v.Report.detail "[t=");
  check Alcotest.bool "detail has pid=" true (contains v.Report.detail "pid=");
  pinned_violations "rendered emission flags"
    [
      "sources [t=0.048000 pid=P1] speculative output \"rogue output\" reached source device \"rogue-teletype-tty\" before its writer's predicates resolved";
    ] sz;
  (* Post-mortem parity: the oracle sees the same offence, so the
     crosscheck appended no divergence. *)
  check Alcotest.bool "oracle agrees" true (oracle_has Report.Sources violations);
  check Alcotest.bool "no sanitizer/oracle divergence" false
    (oracle_has Report.Sanitizer violations)

(* ---------------- forged second win, caught at the event -------------- *)

let test_forged_win_caught_online () =
  let counters = List.hd Invariants.default_scenarios in
  let rr =
    Invariants.run_scenario ~sanitize:true counters
      ~policy:Concurrent.default_policy ~seed:1
  in
  let sz = Option.get rr.Invariants.sanitizer in
  check Alcotest.int "clean run carries no flags" 0 (Sanitizer.flag_count sz);
  (* Forge a duplicate latch win while the observer is still attached:
     the flag must fire at the Trace.record call itself. *)
  let winner = Option.get rr.Invariants.report.Concurrent.winner in
  let eng = rr.Invariants.engine in
  Trace.record (Engine.trace eng) ~time:(Engine.now eng)
    (Trace.Sync_won { pid = winner; index = 99; epoch = 0 });
  check Alcotest.bool "flagged at the forged event" true
    (has_class Report.At_most_once (Sanitizer.flags sz));
  Sanitizer.detach sz;
  pinned_violations "rendered forged-win flags"
    [
      "at-most-once [t=0.084816 pid=P3] the at-most-once latch fired a second time (win 2 of the block)";
      "at-most-once [t=0.084816 pid=P3] 2 Sync_won events within epoch 0";
    ] sz;
  (* The post-mortem oracle, replaying the same (corrupted) trace, agrees
     — so the crosscheck records no divergence. *)
  let oracle = Invariants.check_all rr in
  check Alcotest.bool "oracle sees the duplicate win" true
    (oracle_has Report.At_most_once oracle);
  let div =
    Sanitizer.crosscheck sz ~oracle ~scenario:"counters" ~policy:"p" ~seed:1
  in
  check Alcotest.int "crosscheck is clean" 0 (List.length div)

(* ---------------- shared-space write race, caught at the write -------- *)

let test_shared_space_caught_at_write () =
  let eng = Engine.create ~seed:3 () in
  let sz = Sanitizer.attach eng in
  let sp =
    Address_space.create ~size_hint:4096 (Engine.frame_store eng)
      (Engine.model eng)
  in
  Address_space.set_tracking sp true;
  let p1 =
    Engine.spawn eng ~space:sp (fun ctx ->
        Engine.delay ctx 0.001;
        Address_space.write_bytes sp ~addr:0 (Bytes.make 16 'x'))
  in
  let p2 =
    Engine.spawn eng ~space:sp (fun ctx ->
        Engine.delay ctx 0.002;
        Address_space.write_bytes sp ~addr:256 (Bytes.make 16 'y'))
  in
  Engine.run eng;
  Sanitizer.detach sz;
  check Alcotest.bool "isolation race flagged online" true
    (has_class Report.Isolation (Sanitizer.flags sz));
  let f = List.find (fun f -> f.Sanitizer.sf_class = Report.Isolation)
      (Sanitizer.flags sz)
  in
  check Alcotest.bool "flagged while both writers were live" true
    (f.Sanitizer.sf_time >= 0.001 && f.Sanitizer.sf_time <= 0.002);
  pinned_violations "rendered isolation flags"
    [
      "isolation [t=0.001000 pid=P1] write to frame 0 (vpage 0) of an address space shared by 2 live siblings";
    ] sz;
  (* Oracle parity on the same run. *)
  let oracle =
    Race.check_isolation eng ~children:[ p1; p2 ] ~scenario:"shared"
      ~policy:"p" ~seed:3
  in
  check Alcotest.bool "post-mortem oracle agrees" true
    (oracle_has Report.Isolation oracle);
  let div =
    Sanitizer.crosscheck sz ~oracle ~scenario:"shared" ~policy:"p" ~seed:3
  in
  check Alcotest.int "crosscheck is clean" 0 (List.length div)

(* ---------------- bounded state on long runs ------------------------- *)

let churn n =
  let eng = Engine.create ~trace:false ~seed:5 () in
  let sz = Sanitizer.attach eng in
  ignore
    (Engine.spawn eng (fun ctx ->
         let self = Engine.self ctx in
         let e = Engine.engine ctx in
         for _ = 1 to n do
           ignore
             (Engine.spawn e ~parent:self (fun c ->
                  Engine.send c self (Payload.int 1)));
           ignore (Engine.receive ctx ())
         done));
  Engine.run eng;
  Sanitizer.detach sz;
  (Sanitizer.state_size sz, Sanitizer.flag_count sz)

let test_bounded_state () =
  (* The trace is disabled (History would be empty) yet the observer still
     streams every event; state must track the live set, not run length. *)
  let s20, f20 = churn 20 in
  let s200, f200 = churn 200 in
  check Alcotest.int "no flags on clean churn" 0 (f20 + f200);
  check Alcotest.int "state independent of run length" s20 s200

(* ---------------- clean sweeps are unchanged -------------------------- *)

let test_clean_run_parity () =
  let counters = List.hd Invariants.default_scenarios in
  let policy = Concurrent.default_policy in
  let _, plain = Invariants.run_checked counters ~policy ~seed:2 in
  let rr, sanitized =
    Invariants.run_checked ~sanitize:true counters ~policy ~seed:2
  in
  check Alcotest.int "plain run is clean" 0 (List.length plain);
  check Alcotest.int "sanitized run adds nothing" 0 (List.length sanitized);
  check Alcotest.int "no online flags" 0
    (Sanitizer.flag_count (Option.get rr.Invariants.sanitizer))

(* ---------------- at-most-once scope across supervised restarts ------- *)

let supervised_policy =
  {
    Concurrent.default_policy with
    Concurrent.sync =
      Concurrent.Consensus
        { nodes = 5; crashed = []; vote_delay = 0.0002; reply_timeout = 0.05 };
    sync_retries = 2;
    sync_backoff = 0.02;
  }

let supervised_block eng sites ~seed =
  let counters = List.hd Invariants.default_scenarios in
  let space =
    Address_space.create (Engine.frame_store eng) (Engine.model eng)
  in
  Address_space.set_tracking space true;
  counters.Invariants.prepare eng space;
  let alts = counters.Invariants.alts eng ~seed ~source:None in
  Concurrent.run_supervised eng ~policy:supervised_policy ~space ~sites alts

(* One engine, one sanitizer, two supervised blocks back to back — the
   first one losing its coordinator mid-consensus and recovering behind
   the epoch fence. The failed incarnation and its recovered successor
   belong to the same block: the successor's win must not read as a
   duplicate of anything the dead epoch did. Then [next_block] resets
   the scope, and the second block's win must not read as a duplicate
   of the recovered one's. The control at the end shows the reset is
   what stands between the two blocks: without it the second win is
   exactly the at-most-once leak the scope exists to prevent. *)
let test_next_block_across_supervised_restart () =
  let run ~reset_scope =
    let eng = Engine.create ~seed:11 ~model:Cost_model.att_3b2 () in
    let sz = Sanitizer.attach eng in
    let sites =
      Sites.create eng ~names:[ "s0"; "s1"; "s2"; "s3"; "s4" ]
    in
    (* The crash-coordinator site campaign: s0 (coordinator, children,
       voter 0) dies mid-consensus, the watchdog recovers on a survivor. *)
    Faultplan.install ~sites
      (Faultplan.make ~seed:42
         [ Faultplan.crash_site ~at:0.07 ~jitter:0.015 "s0" ])
      eng;
    let sr1 = supervised_block eng sites ~seed:1 in
    let flags_after_first = Sanitizer.flag_count sz in
    if reset_scope then Sanitizer.next_block sz;
    let sr2 = supervised_block eng sites ~seed:2 in
    Sanitizer.detach sz;
    (sr1, flags_after_first, sr2, sz)
  in
  let sr1, flags_after_first, sr2, sz = run ~reset_scope:true in
  check Alcotest.bool "the campaign really forced a recovery" true
    (sr1.Concurrent.sr_recoveries <> []);
  check Alcotest.bool "recovered block decided" true
    (match sr1.Concurrent.sr_report.Concurrent.outcome with
    | Alt_block.Selected _ -> true
    | Alt_block.Block_failed _ -> false);
  check Alcotest.int
    "no at-most-once leak between the failed and recovered incarnations" 0
    flags_after_first;
  check Alcotest.bool "second block decided too" true
    (match sr2.Concurrent.sr_report.Concurrent.outcome with
    | Alt_block.Selected _ -> true
    | Alt_block.Block_failed _ -> false);
  check Alcotest.int "scoped blocks stay clean across the restart" 0
    (Sanitizer.flag_count sz);
  (* The control: same engine history, no scope reset — the second
     block's win is (wrongly, absent next_block) a second win in the
     first block's scope and must be flagged. *)
  let _, _, _, sz_leak = run ~reset_scope:false in
  check Alcotest.bool "without next_block the second win leaks" true
    (has_class Report.At_most_once (Sanitizer.flags sz_leak));
  pinned_violations "rendered leak flags"
    [
      "at-most-once [t=1.188381 pid=P21] a stale incarnation won in epoch 1 after voters were fenced to epoch 2";
    ] sz_leak

(* The trace of a served request under site faults: incarnation 1's
   winner takes the latch and its coordinator dies before answering, the
   watchdog fences the voters to epoch 2, and the successor's child wins
   again. The fence voided the first grant, so the second win is the
   block's only live one. The control drops the [Recovered]: two wins in
   one unfenced scope are a real duplicate. *)
let test_fenced_win_is_void () =
  let run ~recovered =
    let eng = Engine.create () in
    let sz = Sanitizer.attach eng in
    let record e = Trace.record (Engine.trace eng) ~time:(Engine.now eng) e in
    record (Trace.Sync_won { pid = Pid.of_int 6; index = 2; epoch = 1 });
    if recovered then
      record
        (Trace.Recovered
           { failed = Pid.of_int 3; successor = Pid.of_int 7; epoch = 2 });
    record (Trace.Sync_won { pid = Pid.of_int 10; index = 2; epoch = 2 });
    Sanitizer.detach sz;
    sz
  in
  let flags ~recovered = Sanitizer.flags (run ~recovered) in
  check
    Alcotest.(list string)
    "a win behind the fence is the block's only live one" []
    (List.map (fun f -> f.Sanitizer.sf_detail) (flags ~recovered:true));
  check Alcotest.bool "without the fence the second win is flagged" true
    (has_class Report.At_most_once (flags ~recovered:false));
  pinned_violations "rendered unfenced double win"
    [
      "at-most-once [t=0.000000 pid=P10] the at-most-once latch fired a second time (win 2 of the block)";
    ]
    (run ~recovered:false)

(* ---------------- the flat vector clock against a map reference ------ *)

let ref_tick m p =
  Pid.Map.update p (fun n -> Some (1 + Option.value ~default:0 n)) m

(* A clock built by ticking pids in order, both as a [Vclock.t] and as the
   [Pid.Map] the sanitizer used before (absent = 0). *)
let clocks_of ticks =
  List.fold_left
    (fun (c, m) p ->
      let p = Pid.of_int p in
      (Vclock.tick c p, ref_tick m p))
    (Vclock.empty, Pid.Map.empty) ticks

let ref_join = Pid.Map.union (fun _ x y -> Some (max x y))

let ref_leq a b =
  Pid.Map.for_all
    (fun p n ->
      match Pid.Map.find_opt p b with Some m -> n <= m | None -> false)
    a

let gen_ticks = QCheck.(list_of_size Gen.(int_range 0 12) (int_range 0 7))

let prop_vclock_matches_map =
  QCheck.Test.make ~name:"Vclock join/join_tick/leq/tick match a Pid.Map reference"
    ~count:1000 (QCheck.pair gen_ticks gen_ticks) (fun (xs, ys) ->
      let a, ra = clocks_of xs and b, rb = clocks_of ys in
      (* [c] dominates [a]: the ticks of [a], then more. *)
      let c, rc = clocks_of (xs @ ys) in
      let same v r = Vclock.to_list v = Pid.Map.bindings r in
      same a ra && same b rb && same c rc
      && same (Vclock.join a b) (ref_join ra rb)
      && same (Vclock.join b a) (ref_join rb ra)
      && same (Vclock.join a c) (ref_join ra rc)
      && same (Vclock.join a (Vclock.singleton (Pid.of_int 3)))
           (ref_join ra (Pid.Map.singleton (Pid.of_int 3) 1))
      && Vclock.leq a b = ref_leq ra rb
      && Vclock.leq b a = ref_leq rb ra
      && Vclock.leq a c = ref_leq ra rc
      && Vclock.leq c a = ref_leq rc ra
      && Vclock.is_empty a = Pid.Map.is_empty ra
      && List.for_all
           (fun p ->
             let p = Pid.of_int p in
             same (Vclock.join_tick a b p) (ref_tick (ref_join ra rb) p)
             && same (Vclock.tick a p) (ref_tick ra p))
           [ 0; 3; 7; 9 ])

(* ---------------- state across the blocks of one engine ------------- *)

(* One engine hosts block after block, as a serving batch does: after
   each block the sanitizer's scope is closed and the request's spaces
   are released. Whatever a block registered (its maps, its owners'
   clocks and frame writers, the snapshots of messages that died
   undelivered) must be gone by then, so the state after 100 blocks is
   the state after 10. The crashed site loses every message to or from
   its voter ("site-drop"), and its residents' replies die unread. *)
let state_after_blocks ?crashed_site policy n =
  let eng = Engine.create ~trace:false ~seed:3 ~model:Cost_model.att_3b2 () in
  let sz = Sanitizer.attach eng in
  let sites =
    Option.map
      (fun site ->
        let sites = Sites.create eng ~names:[ "s0"; "s1"; "s2"; "s3"; "s4" ] in
        Sites.crash sites site;
        sites)
      crashed_site
  in
  let counters = List.hd Invariants.default_scenarios in
  for seed = 1 to n do
    let space =
      Address_space.create (Engine.frame_store eng) (Engine.model eng)
    in
    counters.Invariants.prepare eng space;
    ignore (Address_space.drain_cost space);
    let alts = counters.Invariants.alts eng ~seed ~source:None in
    (match sites with
    | None -> ignore (Concurrent.run_toplevel eng ~policy ~space alts)
    | Some sites ->
      let sr = Concurrent.run_supervised eng ~policy ~space ~sites alts in
      Option.iter Address_space.release sr.Concurrent.sr_space);
    Sanitizer.next_block sz;
    Address_space.release space
  done;
  Sanitizer.detach sz;
  check Alcotest.int "no flags" 0 (Sanitizer.flag_count sz);
  Sanitizer.state_size sz

let consensus_policy =
  {
    Concurrent.default_policy with
    Concurrent.sync =
      Concurrent.Consensus
        { nodes = 3; crashed = []; vote_delay = 0.0002; reply_timeout = 0.05 };
  }

let test_state_returns_after_each_block () =
  List.iter
    (fun (label, crashed_site, policy) ->
      check Alcotest.int label
        (state_after_blocks ?crashed_site policy 10)
        (state_after_blocks ?crashed_site policy 100))
    [
      ("local latch", None, Concurrent.default_policy);
      ("3-node consensus", None, consensus_policy);
      ("5-node consensus, crashed site", Some "s4", supervised_policy);
    ]

let () =
  Alcotest.run "sanitizer"
    [
      ( "online",
        [
          Alcotest.test_case "uncertain emission caught at emission" `Quick
            test_emission_caught_online;
          Alcotest.test_case "forged win caught at the event" `Quick
            test_forged_win_caught_online;
          Alcotest.test_case "shared-space race caught at the write" `Quick
            test_shared_space_caught_at_write;
          Alcotest.test_case "next_block scopes supervised restarts" `Quick
            test_next_block_across_supervised_restart;
          Alcotest.test_case "a fenced epoch's win is void" `Quick
            test_fenced_win_is_void;
        ] );
      ( "contract",
        [
          Alcotest.test_case "bounded state" `Quick test_bounded_state;
          Alcotest.test_case "state returns after each block" `Quick
            test_state_returns_after_each_block;
          Alcotest.test_case "clean runs unchanged" `Quick
            test_clean_run_parity;
          QCheck_alcotest.to_alcotest prop_vclock_matches_map;
        ] );
    ]
