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
        ]);    sc_exclusive = false;
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
  (* The post-mortem oracle, whose history heard the same forged event,
     agrees — so the crosscheck records no divergence. *)
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
  let writes = Race.record (Engine.frame_store eng) in
  let p1 =
    Engine.spawn eng ~space:sp (fun ctx ->
        Engine.delay ctx 0.001;
        Address_space.set_string sp ~addr:0 (String.make 16 'x'))
  in
  let p2 =
    Engine.spawn eng ~space:sp (fun ctx ->
        Engine.delay ctx 0.002;
        Address_space.set_string sp ~addr:256 (String.make 16 'y'))
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
    Race.check_isolation writes eng ~children:[ p1; p2 ] ~scenario:"shared"
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
  let state = Sanitizer.state_size sz in
  Sanitizer.detach sz;
  (state, Sanitizer.flag_count sz)

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
  let b =
    Invariants.run_block eng
      (List.hd Invariants.default_scenarios)
      (Invariants.Supervised
         { sites; max_restarts = 2; budget = infinity; avoid_sites = (fun () -> []) })
      ~policy:supervised_policy ~seed
  in
  Option.get b.Invariants.bl_supervised

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

(* ---------------- the in-place vector clock against a map reference -- *)

let ref_tick m p =
  Pid.Map.update p (fun n -> Some (1 + Option.value ~default:0 n)) m

let ref_join = Pid.Map.union (fun _ x y -> Some (max x y))
let ref_get m p = Option.value ~default:0 (Pid.Map.find_opt p m)

(* Operations on four clocks, each mirrored by a [Pid.Map] (absent = 0),
   the representation the sanitizer used before its clocks were flat. *)
type vc_op =
  | V_tick of int * int  (* clock, pid *)
  | V_join of int * int * int  (* into, from, pid to tick *)
  | V_join_snap of int * int * int  (* into, snapshot index, pid *)
  | V_fork of int * int * int  (* from, into, pid: clear, join, tick *)
  | V_snap of int

let show_vc_op = function
  | V_tick (c, p) -> Printf.sprintf "tick c%d P%d" c p
  | V_join (c, d, p) -> Printf.sprintf "join c%d c%d P%d" c d p
  | V_join_snap (c, s, p) -> Printf.sprintf "join c%d s%d P%d" c s p
  | V_fork (c, d, p) -> Printf.sprintf "clear c%d; join c%d c%d P%d" d d c p
  | V_snap c -> Printf.sprintf "snap c%d" c

let gen_vc_op =
  QCheck.Gen.(
    let clock = int_bound 3 and pid = int_bound 9 in
    frequency
      [
        (4, map2 (fun c p -> V_tick (c, p)) clock pid);
        (3, map3 (fun c d p -> V_join (c, d, p)) clock clock pid);
        (2, map3 (fun c s p -> V_join_snap (c, s, p)) clock (int_bound 7) pid);
        (1, map3 (fun c d p -> V_fork (c, d, p)) clock clock pid);
        (2, map (fun c -> V_snap c) clock);
      ])

let arb_vc_ops =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map show_vc_op ops))
    QCheck.Gen.(list_size (int_range 0 60) gen_vc_op)

let same_clock c m = Vclock.to_list c = Pid.Map.bindings m

(* Every operation runs in place on the model's clocks, and after each
   one every clock, every component read with [get], and every snapshot
   taken so far equals the reference. A fork is what a spawn does with a
   reused clock: clear it, join the parent's, tick the child. Joining a
   clock into itself is no operation the sanitizer performs, so the
   generator's [V_join (c, c, _)] ticks instead, and its
   [V_fork (c, c, _)] clears and ticks. *)
let prop_vclock_matches_map =
  QCheck.Test.make
    ~name:"Vclock in-place tick/join/clear/snapshot match a Pid.Map reference"
    ~count:1000 arb_vc_ops (fun ops ->
      let clocks = Array.init 4 (fun _ -> Vclock.create ()) in
      let refs = Array.make 4 Pid.Map.empty in
      let snaps = ref [] in
      let snap_at k =
        let n = List.length !snaps in
        if n = 0 then (Vclock.no_snapshot, Pid.Map.empty)
        else List.nth !snaps (k mod n)
      in
      List.for_all
        (fun op ->
          (match op with
          | V_join (c, d, p) when d <> c ->
              Vclock.join_tick clocks.(c) clocks.(d) (Pid.of_int p);
              refs.(c) <- ref_tick (ref_join refs.(c) refs.(d)) (Pid.of_int p)
          | V_tick (c, p) | V_join (c, _, p) ->
              Vclock.tick clocks.(c) (Pid.of_int p);
              refs.(c) <- ref_tick refs.(c) (Pid.of_int p)
          | V_join_snap (c, k, p) ->
              let s, r = snap_at k in
              Vclock.join_snapshot_tick clocks.(c) s (Pid.of_int p);
              refs.(c) <- ref_tick (ref_join refs.(c) r) (Pid.of_int p)
          | V_fork (c, d, p) when d <> c ->
              Vclock.clear clocks.(d);
              Vclock.join_tick clocks.(d) clocks.(c) (Pid.of_int p);
              refs.(d) <- ref_tick refs.(c) (Pid.of_int p)
          | V_fork (c, _, p) ->
              Vclock.clear clocks.(c);
              Vclock.tick clocks.(c) (Pid.of_int p);
              refs.(c) <- ref_tick Pid.Map.empty (Pid.of_int p)
          | V_snap c -> snaps := !snaps @ [ (Vclock.snapshot clocks.(c), refs.(c)) ]);
          Array.for_all2 same_clock clocks refs
          && Array.for_all2
               (fun c m ->
                 List.for_all
                   (fun p -> Vclock.get c (Pid.of_int p) = ref_get m (Pid.of_int p))
                   [ 0; 3; 7; 9; 10 ])
               clocks refs
          && List.for_all
               (fun (s, r) -> Vclock.snapshot_to_list s = Pid.Map.bindings r)
               !snaps)
        ops)

let gen_ticks = QCheck.(list_of_size Gen.(int_range 0 12) (int_range 0 7))

let clock_of_ticks ticks =
  let c = Vclock.create () in
  List.iter (fun p -> Vclock.tick c (Pid.of_int p)) ticks;
  c

(* The sanitizer keeps a message's snapshot until the receiver accepts
   it, while the sender's clock keeps changing in place: the snapshot
   must read as it was taken after the sender's later ticks and joins,
   whether or not they outgrow the clock's array. *)
let prop_snapshot_stable =
  QCheck.Test.make
    ~name:"a Sent snapshot is unchanged by later ticks and joins"
    ~count:1000
    (QCheck.triple gen_ticks gen_ticks gen_ticks)
    (fun (xs, ys, later) ->
      let sender = clock_of_ticks xs and other = clock_of_ticks ys in
      let s = Vclock.snapshot sender in
      let taken = Vclock.to_list sender in
      List.iter (fun p -> Vclock.tick sender (Pid.of_int p)) later;
      Vclock.join_tick sender other (Pid.of_int 1);
      Vclock.join_snapshot_tick sender (Vclock.snapshot other) (Pid.of_int 2);
      List.iter (fun p -> Vclock.tick sender (Pid.of_int p)) xs;
      Vclock.snapshot_to_list s = taken)

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
  let mode =
    match sites with
    | None -> Invariants.Racing { exclusive = false; budget = infinity }
    | Some sites ->
      Invariants.Supervised
        { sites; max_restarts = 2; budget = infinity; avoid_sites = (fun () -> []) }
  in
  for seed = 1 to n do
    let b = Invariants.run_block eng counters mode ~policy ~seed in
    Option.iter
      (fun sr -> Option.iter Address_space.release sr.Concurrent.sr_space)
      b.Invariants.bl_supervised;
    Sanitizer.next_block sz;
    Address_space.release b.Invariants.bl_space
  done;
  let state = Sanitizer.state_size sz in
  Sanitizer.detach sz;
  check Alcotest.int "no flags" 0 (Sanitizer.flag_count sz);
  state

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

(* ---------------- one sanitizer, re-armed on a reset engine ---------- *)

(* A frame of a scratch store whose id is [id]. The observers read only
   a frame's id, so reporting a write of it on an engine's store reports
   a write into that store's frame [id]. *)
let frame_with_id id =
  let scratch = Frame_store.create ~page_size:1 in
  let rec next () =
    let f = Frame_store.alloc scratch in
    if Frame_store.id f = id then f else next ()
  in
  next ()

(* Two siblings forked from one space. The first privatises page 0; the
   second's write to page 0 is then reported in the first's private
   frame, as if copy-on-write had let it write there: two writers of one
   frame with no happens-before edge between them. *)
let seeded_race eng =
  let store = Engine.frame_store eng in
  let base = Address_space.create store (Engine.model eng) in
  Address_space.set_int base ~addr:0 1;
  let sp1 = Address_space.fork base and sp2 = Address_space.fork base in
  ignore
    (Engine.spawn eng ~space:sp1 (fun ctx ->
         Engine.delay ctx 0.001;
         Address_space.set_int sp1 ~addr:0 2;
         (* Alive, so its space and frame are, at the second write. *)
         Engine.delay ctx 0.002));
  ignore
    (Engine.spawn eng ~space:sp2 (fun ctx ->
         Engine.delay ctx 0.002;
         let frame = Page_map.frame_id (Address_space.map sp1) ~vpage:0 in
         Frame_store.notify_write store
           ~map:(Page_map.id (Address_space.map sp2))
           ~vpage:0
           (frame_with_id (Option.get frame))));
  Engine.run eng

(* A consensus block of the counters scenario whose space is never
   released, so its frame writers outlive it. *)
let unreleased_block eng ~seed =
  ignore
    (Invariants.run_block eng
       (List.hd Invariants.default_scenarios)
       (Invariants.Racing { exclusive = false; budget = infinity })
       ~policy:consensus_policy ~seed)

let race_flags =
  [
    "isolation [t=0.002000 pid=P1] P1 wrote frame 1 (vpage 0) concurrently with P0: the write was not privatised copy-on-write";
  ]

(* A run that leaves frame 1 last written by P1, whose space outlives
   it: what a frame writer kept across a reset would misattribute. *)
let leave_frame_writer eng =
  ignore (Engine.spawn eng ignore);
  let base = Address_space.create (Engine.frame_store eng) (Engine.model eng) in
  Address_space.set_int base ~addr:0 1;
  let sp = Address_space.fork base in
  let p = Engine.spawn eng ~space:sp (fun _ -> Address_space.set_int sp ~addr:0 2) in
  Engine.preserve_space eng p;
  Engine.run eng

(* A serving domain keeps one sanitizer and re-arms it on its engine
   after each reset. The engine's store hands out frame ids from 0 again,
   so a frame writer kept from the last batch would be read as a writer
   of an unrelated frame of this one. *)
let test_rearmed_race () =
  let fresh =
    let eng = Engine.create ~seed:7 () in
    let sz = Sanitizer.attach eng in
    seeded_race eng;
    Sanitizer.detach sz;
    sz
  in
  pinned_violations "rendered race, fresh sanitizer" race_flags fresh;
  let eng = Engine.create ~seed:7 () in
  let sz = Sanitizer.attach eng in
  leave_frame_writer eng;
  check Alcotest.int "P1's clock, map and frame writer outlive the run" 3
    (Sanitizer.state_size sz);
  Sanitizer.detach sz;
  Engine.reset eng ~seed:7;
  Sanitizer.arm sz;
  seeded_race eng;
  Sanitizer.detach sz;
  pinned_violations "rendered race, re-armed sanitizer" race_flags sz

let test_clean_block_after_rearm () =
  let eng = Engine.create ~seed:7 () in
  let sz = Sanitizer.attach eng in
  seeded_race eng;
  Sanitizer.detach sz;
  check Alcotest.bool "the race was flagged" true (Sanitizer.flag_count sz > 0);
  Engine.reset eng ~seed:7;
  Sanitizer.arm sz;
  check Alcotest.int "re-arming drops the flags" 0 (Sanitizer.flag_count sz);
  unreleased_block eng ~seed:1;
  Sanitizer.detach sz;
  check Alcotest.int "a clean block flags nothing" 0 (Sanitizer.flag_count sz)

(* Between batches a serving domain's sanitizer is detached: it holds
   none of the last batch's state, even where the batch left spaces and
   frames live, and its flags stay readable. *)
let test_detached_holds_nothing () =
  let eng = Engine.create ~seed:7 () in
  let sz = Sanitizer.attach eng in
  unreleased_block eng ~seed:1;
  seeded_race eng;
  check Alcotest.bool "the run left state" true (Sanitizer.state_size sz > 0);
  Sanitizer.detach sz;
  check Alcotest.int "detached: state size" 0 (Sanitizer.state_size sz);
  check Alcotest.bool "detached: flags readable" true (Sanitizer.flag_count sz > 0)

(* The worlds example under the sanitizer: a consumer splits on a
   speculative producer's message, and the world that accepted it dies
   when the other alternative wins. The sanitizer sees [Killed] and then
   the killed world's [Exited]; nothing of the dead world stays, and
   nothing is flagged. *)
let test_dead_world_killed () =
  let eng = Engine.create ~trace:true () in
  let sz = Sanitizer.attach eng in
  let consumer =
    Engine.spawn eng ~name:"consumer" (fun ctx ->
        for _ = 1 to 2 do
          ignore (Engine.receive ctx ())
        done)
  in
  let alt name cost partial =
    Alternative.make ~name (fun ctx ->
        Engine.send ctx consumer (Payload.int partial);
        Engine.delay ctx cost;
        partial)
  in
  ignore
    (Engine.spawn eng ~cloneable:false ~name:"parent" (fun ctx ->
         ignore (Concurrent.run ctx [ alt "slow" 5.0 100; alt "fast" 1.0 7 ])));
  ignore
    (Engine.spawn eng ~name:"steady" (fun ctx ->
         Engine.delay ctx 8.;
         Engine.send ctx consumer (Payload.int 1)));
  Engine.run eng;
  let killed =
    List.filter
      (fun (_, e) -> match e with Trace.Killed _ -> true | _ -> false)
      (Trace.events (Engine.trace eng))
  in
  check Alcotest.bool "a world was killed" true (killed <> []);
  Sanitizer.next_block sz;
  check Alcotest.int "no clock, snapshot, map or frame entry left" 0
    (Sanitizer.state_size sz);
  Sanitizer.detach sz;
  check Alcotest.int "no flag" 0 (Sanitizer.flag_count sz)

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
          Alcotest.test_case "a dead world's kill leaves nothing" `Quick
            test_dead_world_killed;
        ] );
      ( "rearm",
        [
          Alcotest.test_case "a re-armed sanitizer flags a seeded race as a fresh one" `Quick
            test_rearmed_race;
          Alcotest.test_case "a clean block after a re-arm flags nothing" `Quick
            test_clean_block_after_rearm;
        ] );
      ( "contract",
        [
          Alcotest.test_case "bounded state" `Quick test_bounded_state;
          Alcotest.test_case "state returns after each block" `Quick
            test_state_returns_after_each_block;
          Alcotest.test_case "clean runs unchanged" `Quick
            test_clean_run_parity;
          QCheck_alcotest.to_alcotest prop_vclock_matches_map;
          QCheck_alcotest.to_alcotest prop_snapshot_stable;
          Alcotest.test_case "a detached sanitizer holds nothing" `Quick
            test_detached_holds_nothing;
        ] );
    ]
