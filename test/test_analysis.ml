(* Tests for the analysis layer: the clean matrix is violation-free, and
   each seeded corruption of a recorded execution trips exactly the
   intended checker with its distinct exit code. *)

let check = Alcotest.check

let sync_elim =
  { Concurrent.default_policy with Concurrent.elimination = Concurrent.Sync_elim }

let counters = List.hd Invariants.default_scenarios

let class_names vs =
  List.sort_uniq compare (List.map (fun v -> Report.class_name v.Report.check) vs)

(* ---------------- clean matrix ---------------- *)

let test_clean_matrix () =
  let r =
    Campaign.run (Campaign.cells { Campaign.clean with Campaign.fm_seeds = 2 })
  in
  let violations = r.Campaign.violations in
  check Alcotest.int "all cells ran"
    (List.length Invariants.default_scenarios
     * List.length Invariants.policy_matrix * 2)
    r.Campaign.cells_run;
  List.iter (fun v -> Format.printf "%a@." Report.pp_violation v) violations;
  check Alcotest.int "no violations" 0 (List.length violations);
  check Alcotest.int "exit code" 0 (Report.exit_code violations)

(* The oracle off local placement: every default scenario under every
   policy of the matrix, its children spawned remotely (spaces restored
   from a checkpoint, whose fills the isolation reader hears) or on
   demand (copy-on-write at network prices), with and without the
   sanitizer. *)
let test_remote_placements_clean () =
  let dirty = ref [] in
  List.iter
    (fun placement ->
      List.iter
        (fun sanitize ->
          List.iter
            (fun (sc : Invariants.scenario) ->
              List.iter
                (fun p ->
                  let policy = { p with Concurrent.placement } in
                  let _, vs = Invariants.run_checked ~sanitize sc ~policy ~seed:1 in
                  List.iter
                    (fun v ->
                      dirty :=
                        Format.asprintf "%s%a"
                          (if sanitize then "sanitized " else "")
                          Report.pp_violation v
                        :: !dirty)
                    vs)
                Invariants.policy_matrix)
            Invariants.default_scenarios)
        [ false; true ])
    [ Concurrent.Remote_spawn; Concurrent.Remote_on_demand ];
  check Alcotest.(list string) "no violations" [] (List.rev !dirty)

(* ---------------- seeded bugs ---------------- *)

(* A second latch fill: some loser also records Sync_won, as if the
   at-most-once synchronisation admitted two winners. *)
let test_seeded_double_latch () =
  let rr = Invariants.run_scenario counters ~policy:sync_elim ~seed:1 in
  let tr = Engine.trace rr.Invariants.engine in
  let loser =
    List.find
      (fun c ->
        not (Option.equal Pid.equal (Some c) rr.Invariants.report.Concurrent.winner))
      rr.Invariants.report.Concurrent.children
  in
  Trace.record tr
    ~time:(Engine.now rr.Invariants.engine)
    (Trace.Sync_won { pid = loser; index = 99; epoch = 0 });
  let vs = Invariants.check_all rr in
  check Alcotest.bool "caught" true (vs <> []);
  check Alcotest.(list string) "only the at-most-once checker fires"
    [ "at-most-once" ] (class_names vs);
  check Alcotest.int "exit code" 10 (Report.exit_code vs)

(* A forged acceptance: the trace claims a process accepted a message whose
   predicate contradicts the acceptor's own world. *)
let test_seeded_forged_predicate () =
  let rr = Invariants.run_scenario counters ~policy:sync_elim ~seed:2 in
  let tr = Engine.trace rr.Invariants.engine in
  let c0 = List.hd rr.Invariants.report.Concurrent.children in
  let c1 = List.nth rr.Invariants.report.Concurrent.children 1 in
  let msg =
    Message.make ~sender:c0 ~dest:c1
      ~predicate:(Predicate.make ~must_complete:[ c0 ] ~must_fail:[])
      ~tag:"forged" ~seq:0 Payload.Unit
  in
  Trace.record tr
    ~time:(Engine.now rr.Invariants.engine)
    (Trace.Accepted
       { dest = c1; msg;
         dest_pred = Predicate.make ~must_complete:[] ~must_fail:[ c0 ] });
  let vs = Invariants.check_all rr in
  check Alcotest.int "caught once" 1 (List.length vs);
  check Alcotest.(list string) "only the world checker fires" [ "world" ]
    (class_names vs);
  check Alcotest.int "exit code" 12 (Report.exit_code vs)

(* A skipped elimination: a loser's exit vanishes from the record, as if the
   block let an alternative escape. *)
let test_seeded_skipped_elimination () =
  let rr =
    Invariants.run_scenario ~record:true counters ~policy:sync_elim ~seed:3
  in
  let loser =
    List.find
      (fun c ->
        not (Option.equal Pid.equal (Some c) rr.Invariants.report.Concurrent.winner))
      rr.Invariants.report.Concurrent.children
  in
  let kept =
    List.filter
      (fun (_, e) ->
        match e with
        | Trace.Exited { pid; _ } -> not (Pid.equal pid loser)
        | _ -> true)
      (Trace.events (Engine.trace rr.Invariants.engine))
  in
  let vs = Invariants.check_all { rr with history = History.replay kept } in
  check Alcotest.int "caught once" 1 (List.length vs);
  check Alcotest.(list string) "only the elimination checker fires"
    [ "elimination" ] (class_names vs);
  check Alcotest.int "exit code" 13 (Report.exit_code vs)

(* ---------------- race detection ---------------- *)

(* Two siblings sharing one (unprivatised-by-COW) address space: every
   write lands in the same frames, which is exactly what the isolation
   checker must flag. With [~sanitize] the sanitizer watches the same
   store, and the one write must reach both readers: the oracle's
   violation and the sanitizer's flag. *)
let shared_space_race ~sanitize =
  let eng = Engine.create ~seed:7 () in
  let sz = if sanitize then Some (Sanitizer.attach eng) else None in
  let sp = Address_space.create (Engine.frame_store eng) (Engine.model eng) in
  let writes = Race.record (Engine.frame_store eng) in
  let blocked ctx = ignore (Engine.receive ctx ()) in
  let p1 = Engine.spawn eng ~space:sp ~name:"sib0" blocked in
  let p2 = Engine.spawn eng ~space:sp ~name:"sib1" blocked in
  Engine.run eng;
  Address_space.write_bytes sp ~addr:0 (Bytes.make 16 'x');
  let vs =
    Race.check_isolation writes eng ~children:[ p1; p2 ]
      ~scenario:"shared-space" ~policy:"manual" ~seed:7
  in
  check Alcotest.bool "shared frame flagged" true (vs <> []);
  check Alcotest.(list string) "isolation class" [ "isolation" ] (class_names vs);
  check Alcotest.int "exit code" 14 (Report.exit_code vs);
  Option.iter
    (fun sz ->
      Sanitizer.detach sz;
      check Alcotest.(list string) "the sanitizer flags the write"
        [ "isolation" ]
        (List.map
           (fun f -> Report.class_name f.Sanitizer.sf_class)
           (Sanitizer.flags sz));
      check Alcotest.int "the two readers agree" 0
        (List.length
           (Sanitizer.crosscheck sz ~oracle:vs ~scenario:"shared-space"
              ~policy:"manual" ~seed:7)))
    sz

let test_isolation_shared_space () = shared_space_race ~sanitize:false

let test_isolation_shared_space_sanitized () = shared_space_race ~sanitize:true

(* ---------------- trace export ---------------- *)

let test_trace_jsonl () =
  let rr =
    Invariants.run_scenario ~record:true counters ~policy:sync_elim ~seed:4
  in
  let tr = Engine.trace rr.Invariants.engine in
  let s = Trace.to_jsonl tr in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' s) in
  check Alcotest.int "one line per event" (List.length (Trace.events tr))
    (List.length lines);
  List.iter
    (fun l ->
      check Alcotest.bool "line is a JSON object" true
        (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}');
      check Alcotest.bool "line carries a timestamp" true
        (String.starts_with ~prefix:"{\"t\":" l))
    lines;
  check Alcotest.bool "records spawns" true
    (List.exists (fun l -> String.length l > 0) lines
     && List.exists
          (fun l ->
            let re = "\"ev\":\"spawned\"" in
            let rec find i =
              i + String.length re <= String.length l
              && (String.sub l i (String.length re) = re || find (i + 1))
            in
            find 0)
          lines)

(* ---------------- supervised blocks ---------------- *)

(* A site-campaign cell run through the oracle's own runner, recording. *)
let run_site_cell (c : Campaign.cell) =
  Invariants.run_scenario ~record:true
    ~faults:(c.Campaign.cl_campaign.Campaign.plan ~seed:c.Campaign.cl_seed)
    ~sites:Campaign.site_names c.Campaign.cl_scenario
    ~policy:c.Campaign.cl_policy ~seed:c.Campaign.cl_seed

let site_cell ~campaign ~scenario =
  List.filter
    (fun (c : Campaign.cell) ->
      c.Campaign.cl_campaign.Campaign.cg_name = campaign
      && c.Campaign.cl_scenario.Invariants.sc_name = scenario)
    (Array.to_list (Campaign.cells Campaign.sites))

let epoch_of rr = (snd (Option.get rr.Invariants.supervised)).Concurrent.sr_epoch

(* The world and at-most-once checkers judge supervised blocks too: a
   conflicting acceptance and a second win in the deciding epoch, forged
   into a clean crash-minority cell, each trip their own class. *)
let test_supervised_world_and_latch () =
  let rr = run_site_cell (List.hd (site_cell ~campaign:"crash-minority" ~scenario:"counters")) in
  check Alcotest.int "the clean cell is clean" 0
    (List.length (Invariants.check_all rr));
  let clean = Trace.events (Engine.trace rr.Invariants.engine) in
  let now = Engine.now rr.Invariants.engine in
  let c0 = List.hd rr.Invariants.report.Concurrent.children in
  let c1 = List.nth rr.Invariants.report.Concurrent.children 1 in
  let msg =
    Message.make ~sender:c0 ~dest:c1
      ~predicate:(Predicate.make ~must_complete:[ c0 ] ~must_fail:[])
      ~tag:"forged" ~seq:0 Payload.Unit
  in
  let judge events =
    Invariants.check_all { rr with history = History.replay events }
  in
  let vs =
    judge
      (clean
      @ [
          ( now,
            Trace.Accepted
              {
                dest = c1;
                msg;
                dest_pred = Predicate.make ~must_complete:[] ~must_fail:[ c0 ];
              } );
        ])
  in
  check Alcotest.(list string) "only the world checker fires" [ "world" ]
    (class_names vs);
  check Alcotest.int "exit code" 12 (Report.exit_code vs);
  let loser =
    List.find
      (fun c ->
        not (Option.equal Pid.equal (Some c) rr.Invariants.report.Concurrent.winner))
      rr.Invariants.report.Concurrent.children
  in
  let vs =
    judge
      (clean
      @ [
          (now, Trace.Sync_won { pid = loser; index = 99; epoch = epoch_of rr });
        ])
  in
  check Alcotest.(list string) "only the at-most-once checker fires"
    [ "at-most-once" ] (class_names vs);
  check Alcotest.int "exit code" 10 (Report.exit_code vs)

(* A win in an epoch a recovery fenced is void: a first incarnation that
   won, absorbed its winner and died leaves a second Sync_won, a second
   Absorbed and a second ok exit in the block's trace, none of which may
   count against the deciding epoch. *)
let test_fenced_win_is_void () =
  let rr, failed, child =
    List.find_map
      (fun c ->
        let rr = run_site_cell c in
        match (snd (Option.get rr.Invariants.supervised)).Concurrent.sr_recoveries with
        | [ (failed, _, 2) ] -> (
          match Engine.children_of rr.Invariants.engine failed with
          | child :: _ -> Some (rr, failed, child)
          | [] -> None)
        | _ -> None)
      (site_cell ~campaign:"crash-coordinator" ~scenario:"counters")
    |> Option.get
  in
  check Alcotest.int "epoch 2 decided" 2 (epoch_of rr);
  check Alcotest.int "the clean cell is clean" 0
    (List.length (Invariants.check_all rr));
  let now = Engine.now rr.Invariants.engine in
  let forged =
    List.map
      (fun (t, e) ->
        match e with
        | Trace.Exited { pid; _ } when Pid.equal pid child ->
          (t, Trace.Exited { pid; status = "ok" })
        | e -> (t, e))
      (Trace.events (Engine.trace rr.Invariants.engine))
    @ [
        (now, Trace.Sync_won { pid = child; index = 0; epoch = 1 });
        (now, Trace.Absorbed { parent = failed; child });
      ]
  in
  let vs = Invariants.check_all { rr with history = History.replay forged } in
  List.iter (fun v -> Format.printf "%a@." Report.pp_violation v) vs;
  check Alcotest.int "nothing counts against the deciding epoch" 0
    (List.length vs)

(* ---------------- streamed history ---------------- *)

(* Everything a history answers about a run, rendered: every accessor,
   the exits and name of each pid in [pids], and the sent and accepted
   counts of each tag in [tags]. *)
let render_history h ~pids ~tags =
  let pid = Format.asprintf "%a" Pid.pp in
  let msg = Format.asprintf "%a" Message.pp in
  let pred = Format.asprintf "%a" Predicate.pp in
  let opt f = function None -> "-" | Some x -> f x in
  let fate = function
    | Predicate.Completed -> "completed"
    | Predicate.Failed -> "failed"
  in
  let line label f xs = label ^ ": " ^ String.concat "; " (List.map f xs) in
  [
    line "sync_wins" (fun (p, i, e) -> Printf.sprintf "%s/%d/%d" (pid p) i e)
      (History.sync_wins h);
    line "sync_lates" (fun (p, i) -> Printf.sprintf "%s/%d" (pid p) i)
      (History.sync_lates h);
    line "absorbs" (fun (p, c) -> pid p ^ "<-" ^ pid c) (History.absorbs h);
    line "accepts" (fun (d, dp, m) -> pid d ^ " " ^ pred dp ^ " " ^ msg m)
      (History.accepts h);
    line "fates" (fun (p, f) -> pid p ^ "=" ^ fate f) (History.fates h);
    line "kills" (fun (p, r) -> pid p ^ " " ^ r) (History.kills h);
    line "injections"
      (fun (k, p, m) -> k ^ " " ^ opt pid p ^ " " ^ opt msg m)
      (History.injections h);
    line "site_crashes" Fun.id (History.site_crashes h);
    line "recoveries"
      (fun (f, s, e) -> Printf.sprintf "%s->%s/%d" (pid f) (pid s) e)
      (History.recoveries h);
    Printf.sprintf "faulted %b partitions %d heals %d" (History.faulted h)
      (History.partitions h) (History.heals h);
  ]
  @ List.map
      (fun p ->
        Printf.sprintf "%s %s exits [%s]" (pid p)
          (opt Fun.id (History.name_of h p))
          (String.concat "; " (History.exits_of h p)))
      pids
  @ List.map
      (fun tag ->
        Printf.sprintf "tag %s sent %d accepted %d" tag
          (History.count_sent_tag h ~tag)
          (History.count_accept_tag h ~tag ~dest_ok:(fun _ -> true)))
      tags

(* The kinds a history reads, with the name the model test reports. *)
let history_kinds =
  Trace.Kind.
    [
      (spawned, "spawned"); (exited, "exited"); (sent, "sent");
      (accepted, "accepted"); (killed, "killed"); (fate, "fate");
      (absorbed, "absorbed"); (sync_won, "sync_won"); (sync_late, "sync_late");
      (injected, "injected"); (site_crashed, "site_crashed");
      (recovered, "recovered"); (partitioned, "partitioned");
      (healed, "healed");
    ]

(* The pids an engine issued, and the tags its recording's messages
   carry. *)
let issued eng =
  match Array.to_list (Engine.fresh_pids eng 1) with
  | [ next ] -> List.init (Pid.to_int next) Pid.of_int
  | _ -> assert false

let tags_of events =
  List.sort_uniq String.compare
    (List.filter_map
       (fun (_, e) ->
         match e with
         | Trace.Sent { msg } | Trace.Accepted { msg; _ } ->
           Some msg.Message.tag
         | _ -> None)
       events)

(* No matrix cell kills a dead world: a process assuming a sibling
   completes outlives it by waiting, and the sibling fails. *)
let dead_world_run () =
  let eng = Engine.create () in
  let h = History.attach (Engine.trace eng) in
  let sibling, assumer =
    match Array.to_list (Engine.fresh_pids eng 2) with [ a; b ] -> (a, b) | _ -> assert false
  in
  ignore
    (Engine.spawn eng ~pid:sibling ~name:"sibling" (fun ctx ->
         Engine.delay ctx 1.;
         Engine.abort ctx "fails"));
  ignore
    (Engine.spawn eng ~pid:assumer ~name:"assumer"
       ~predicate:(Predicate.make ~must_complete:[ sibling ] ~must_fail:[])
       (fun ctx -> ignore (Engine.receive ctx ~tag:"never" ())));
  Engine.run eng;
  (eng, h)

(* The model: the history a cell streams to the oracle equals the one
   replayed from a full recording of the same execution, on every cell of
   the clean, message and site families at seed 1, plain and sanitized,
   and on a dead world's kill. [History.replay] folds every recorded
   event, so a kind that [History.attach]'s mask drops shows as a
   difference, provided some run records that kind: the runs must record
   each of them. *)
let test_streamed_history_is_the_recording () =
  let seen = ref 0 and diffs = ref [] in
  let compare_run what eng streamed =
    let events = Trace.events (Engine.trace eng) in
    List.iter (fun (_, e) -> seen := !seen lor Trace.kind e) events;
    let pids = issued eng and tags = tags_of events in
    if render_history streamed ~pids ~tags
       <> render_history (History.replay events) ~pids ~tags
    then diffs := what :: !diffs
  in
  let eng, h = dead_world_run () in
  compare_run "dead world" eng h;
  List.iter
    (fun family ->
      Array.iter
        (fun c ->
          List.iter
            (fun sanitize ->
              let rr, _ = Campaign.execute ~record:true ~sanitize c in
              compare_run
                (Printf.sprintf "%s (sanitize=%b)" (Campaign.describe_cell c)
                   sanitize)
                rr.Invariants.engine rr.Invariants.history)
            [ false; true ])
        (Campaign.cells { family with Campaign.fm_seeds = 1 }))
    [ Campaign.clean; Campaign.messages; Campaign.sites ];
  check Alcotest.(list string) "kinds the sweep never records" []
    (List.filter_map
       (fun (k, name) -> if !seen land k = 0 then Some name else None)
       history_kinds);
  check Alcotest.(list string) "cells whose streamed history differs" []
    (List.rev !diffs)

(* ---------------- one block runner ---------------- *)

let consensus_policies =
  List.filter
    (fun p ->
      match p.Concurrent.sync with
      | Concurrent.Consensus _ -> true
      | Concurrent.Local -> false)
    Invariants.policy_matrix

let local_policy = List.hd Invariants.policy_matrix
let consensus_policy = List.hd consensus_policies
let fault_sites = [ "s0"; "s1"; "s2"; "s3"; "s4" ]
let racing = Invariants.Racing { exclusive = false; budget = infinity }

let supervised sites =
  Invariants.Supervised
    { sites; max_restarts = 2; budget = infinity; avoid_sites = (fun () -> []) }

(* One request through both paths: the server's (the runner on a domain
   engine, warmed by another block and reset with the request's seed,
   no monitor attached) and the oracle's ([run_scenario] on a fresh
   engine with a [History] and a [Race.record] attached). The reports
   must agree field for field. *)
let test_two_paths_one_report () =
  let engine = Engine.create ~model:Cost_model.att_3b2 ~trace:false () in
  let topology = Sites.create engine ~names:fault_sites in
  let served ~on_sites sc ~policy ~seed =
    (* Warm the engine with another block, then reset it (and re-arm
       the topology, for a faulted batch) as a batch does. *)
    let warm = Invariants.run_block engine counters racing ~policy:local_policy ~seed:7 in
    Address_space.release warm.Invariants.bl_space;
    Engine.reset engine ~seed;
    let mode =
      if on_sites then begin
        Sites.reset topology;
        supervised topology
      end
      else racing
    in
    let b = Invariants.run_block engine sc mode ~policy ~seed in
    Address_space.release b.Invariants.bl_space;
    b.Invariants.bl_report
  in
  let cells = ref 0 in
  let differs = ref [] in
  let compare ?sites sc ~policy ~seed =
    incr cells;
    let oracle = Invariants.run_scenario ?sites sc ~policy ~seed in
    if served ~on_sites:(sites <> None) sc ~policy ~seed <> oracle.Invariants.report
    then
      differs :=
        Printf.sprintf "%s/%s/seed %d%s" sc.Invariants.sc_name
          (Concurrent.describe policy) seed
          (if sites = None then "" else " (supervised)")
        :: !differs
  in
  List.iter
    (fun sc ->
      List.iter
        (fun policy -> List.iter (fun seed -> compare sc ~policy ~seed) [ 1; 2; 3 ])
        [ local_policy; consensus_policy ])
    Invariants.default_scenarios;
  compare ~sites:fault_sites counters ~policy:consensus_policy ~seed:1;
  check Alcotest.int "cells" ((4 * 2 * 3) + 1) !cells;
  check Alcotest.(list string) "reports that differ" [] (List.rev !differs)

(* The oracle on the rungs the server serves below full service: rung 2's
   sequential fallback (under the local latch the server swaps in) for
   every scenario, and rung 1's consensus elision for every scenario
   proven exclusive, under each consensus policy at seeds 1-3. *)
let test_oracle_runs_served_rungs () =
  let dirty = ref [] in
  let runs = ref 0 in
  let judge what sc ~policy ~mode ~seed =
    incr runs;
    let _, vs = Invariants.run_checked ~mode sc ~policy ~seed in
    List.iter
      (fun v -> dirty := Format.asprintf "%s: %a" what Report.pp_violation v :: !dirty)
      vs
  in
  List.iter
    (fun policy ->
      List.iter
        (fun seed ->
          List.iter
            (fun (sc : Invariants.scenario) ->
              judge "sequential" sc
                ~policy:{ policy with Concurrent.sync = Concurrent.Local }
                ~mode:Invariants.Sequential ~seed;
              if sc.Invariants.sc_exclusive then
                judge "exclusive" sc ~policy
                  ~mode:(Invariants.Racing { exclusive = true; budget = infinity })
                  ~seed)
            Invariants.default_scenarios)
        [ 1; 2; 3 ])
    consensus_policies;
  check Alcotest.int "runs" (12 * 3 * (4 + 2)) !runs;
  check Alcotest.(list string) "violations" [] (List.rev !dirty)

(* Exclusivity soundness: for a scenario claimed exclusive, eliding the
   consensus changes nothing a client sees — the outcome and the
   surviving state equal the consensus path's. *)
let test_exclusive_elision_is_sound () =
  let differs = ref [] in
  List.iter
    (fun (sc : Invariants.scenario) ->
      if sc.Invariants.sc_exclusive then
        List.iter
          (fun policy ->
            List.iter
              (fun seed ->
                let run exclusive =
                  Invariants.run_scenario
                    ~mode:(Invariants.Racing { exclusive; budget = infinity })
                    sc ~policy ~seed
                in
                let voted = run false and elided = run true in
                if
                  voted.Invariants.report.Concurrent.outcome
                  <> elided.Invariants.report.Concurrent.outcome
                  || not
                       (Page_map.snapshot_equal
                          (Address_space.map voted.Invariants.space)
                          (Address_space.map elided.Invariants.space))
                then
                  differs :=
                    Printf.sprintf "%s/%s/seed %d" sc.Invariants.sc_name
                      (Concurrent.describe policy) seed
                    :: !differs)
              [ 1; 2; 3 ])
          consensus_policies)
    Invariants.default_scenarios;
  check Alcotest.(list string) "cells where elision changed the answer" []
    (List.rev !differs)

(* The claim itself: under [No_elim] no sibling is killed, so every
   alternative that produces a result reaches the synchronisation, and a
   scenario claimed exclusive must never have one told "too late". *)
let test_exclusive_claims_hold () =
  let late = ref [] in
  List.iter
    (fun (sc : Invariants.scenario) ->
      if sc.Invariants.sc_exclusive then
        List.iter
          (fun policy ->
            if policy.Concurrent.elimination = Concurrent.No_elim then
              List.iter
                (fun seed ->
                  let rr = Invariants.run_scenario sc ~policy ~seed in
                  if History.sync_lates rr.Invariants.history <> [] then
                    late :=
                      Printf.sprintf "%s/%s/seed %d" sc.Invariants.sc_name
                        (Concurrent.describe policy) seed
                      :: !late)
                [ 1; 2; 3 ])
          Invariants.policy_matrix)
    Invariants.default_scenarios;
  check Alcotest.(list string) "cells where a second alternative synchronised"
    [] (List.rev !late)

let () =
  Alcotest.run "analysis"
    [
      ( "analysis",
        [
          Alcotest.test_case "clean matrix has no violations" `Quick
            test_clean_matrix;
          Alcotest.test_case "remote placements have no violations" `Quick
            test_remote_placements_clean;
          Alcotest.test_case "seeded double latch fill -> exit 10" `Quick
            test_seeded_double_latch;
          Alcotest.test_case "seeded forged predicate -> exit 12" `Quick
            test_seeded_forged_predicate;
          Alcotest.test_case "seeded skipped elimination -> exit 13" `Quick
            test_seeded_skipped_elimination;
          Alcotest.test_case "shared-space race -> exit 14" `Quick
            test_isolation_shared_space;
          Alcotest.test_case "shared-space race sanitized -> exit 14" `Quick
            test_isolation_shared_space_sanitized;
          Alcotest.test_case "trace exports as JSON lines" `Quick
            test_trace_jsonl;
        ] );
      ( "history",
        [
          Alcotest.test_case "streamed history equals its recording" `Quick
            test_streamed_history_is_the_recording;
        ] );
      ( "supervised",
        [
          Alcotest.test_case "forged acceptance and double win -> 12, 10"
            `Quick test_supervised_world_and_latch;
          Alcotest.test_case "a fenced epoch's win is void" `Quick
            test_fenced_win_is_void;
        ] );
      ( "runner",
        [
          Alcotest.test_case "one request, two paths, one report" `Quick
            test_two_paths_one_report;
          Alcotest.test_case "the oracle runs the served rungs" `Quick
            test_oracle_runs_served_rungs;
          Alcotest.test_case "exclusive elision is sound" `Quick
            test_exclusive_elision_is_sound;
          Alcotest.test_case "exclusive claims hold" `Quick
            test_exclusive_claims_hold;
        ] );
    ]
