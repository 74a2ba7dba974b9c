(* Site-failure campaigns over supervised (coordinator-recovery) blocks.

   Where {!Fuzz} attacks individual messages and processes, this module
   attacks whole failure domains: it builds a five-site topology, spreads
   the consensus voters one-per-site, runs the block under
   {!Concurrent.run_supervised}, and injects site crashes and network
   partitions from the plan seed. The checkers are epoch-aware versions of
   the core invariants: at most one synchronisation win {e per epoch}, at
   most one committed result {e across} epochs, transparency of any
   selected result against the sequential oracle, honest degradation when
   a voter majority is lost. *)

type campaign = {
  sg_name : string;
  sg_doc : string;
  plan : seed:int -> Faultplan.t;
  sg_majority_crash : bool;
      (* the campaign takes down a voter majority before any alternative
         can synchronise, so a clean Selected outcome would be a lie *)
}

let site_names = [ "s0"; "s1"; "s2"; "s3"; "s4" ]

(* Plan seeds are derived from the cell seed with odd multipliers disjoint
   from the {!Fuzz} campaigns', so no two campaigns anywhere share a
   jitter stream for the same cell. *)
let default_campaigns =
  [
    {
      sg_name = "crash-minority";
      sg_doc = "crash two voter sites (s1, s3); a 3-of-5 quorum survives";
      sg_majority_crash = false;
      plan =
        (fun ~seed ->
          Faultplan.make ~seed:((seed * 61) + 11)
            [
              Faultplan.crash_site ~at:0.003 ~jitter:0.002 "s1";
              Faultplan.crash_site ~at:0.010 ~jitter:0.002 "s3";
            ]);
    };
    (* The block's own schedule (att_3b2 cost model): children spawn at
       ~0.07 virtual seconds (parent setup and space forks), consensus
       traffic flies at ~0.08-0.10. Mid-flight campaigns aim there. *)
    {
      sg_name = "crash-coordinator";
      sg_doc = "crash s0 (coordinator, children, voter0) mid-run: watchdog \
                recovery on a surviving site";
      sg_majority_crash = false;
      plan =
        (fun ~seed ->
          Faultplan.make ~seed:((seed * 67) + 12)
            [ Faultplan.crash_site ~at:0.07 ~jitter:0.015 "s0" ]);
    };
    {
      sg_name = "partition-minority";
      sg_doc = "cut {s3,s4} off across the sync window; the majority side \
                keeps quorum";
      sg_majority_crash = false;
      plan =
        (fun ~seed ->
          Faultplan.make ~seed:((seed * 71) + 13)
            [
              Faultplan.partition_sites ~at:0.075 ~jitter:0.005
                ~heal_after:0.05 [ "s3"; "s4" ] [ "s0"; "s1"; "s2" ];
            ]);
    };
    {
      sg_name = "partition-quorum-loss";
      sg_doc = "isolate the coordinator's site across the sync window, then \
                heal: retries must carry the block over the outage";
      sg_majority_crash = false;
      plan =
        (fun ~seed ->
          Faultplan.make ~seed:((seed * 73) + 14)
            [
              Faultplan.partition_sites ~at:0.07 ~jitter:0.005
                ~heal_after:0.07
                [ "s0" ]
                [ "s1"; "s2"; "s3"; "s4" ];
            ]);
    };
    {
      sg_name = "crash-majority";
      sg_doc = "crash three voter sites before anyone can synchronise: the \
                block must degrade or fail, never select";
      sg_majority_crash = true;
      plan =
        (fun ~seed ->
          Faultplan.make ~seed:((seed * 79) + 15)
            [
              Faultplan.crash_site ~at:0.0002 ~jitter:0.0001 "s1";
              Faultplan.crash_site ~at:0.0003 ~jitter:0.0001 "s2";
              Faultplan.crash_site ~at:0.0004 ~jitter:0.0001 "s3";
            ]);
    };
  ]

let consensus5 =
  Concurrent.Consensus
    { nodes = 5; crashed = []; vote_delay = 0.0002; reply_timeout = 0.05 }

let default_policies =
  [
    (* Retry across the outage, fail honestly if it persists. *)
    {
      Concurrent.default_policy with
      Concurrent.sync = consensus5;
      sync_retries = 2;
      sync_backoff = 0.02;
    };
    (* Same, degrading to sequential execution rather than failing. *)
    {
      Concurrent.default_policy with
      Concurrent.sync = consensus5;
      sync_retries = 2;
      sync_backoff = 0.02;
      degradation = Concurrent.Sequential_fallback;
    };
  ]

(* Source devices and coordinator restarts do not mix (a restarted
   incarnation would re-read consumed input), so the site matrix runs the
   sourceless scenarios only. *)
let default_scenarios =
  List.filter
    (fun sc -> not sc.Invariants.uses_source)
    Invariants.default_scenarios

type cell = {
  sf_scenario : Invariants.scenario;
  sf_campaign : campaign;
  sf_policy : Concurrent.policy;
  sf_seed : int;
}

let cells ?(seeds = 3) ?(scenarios = default_scenarios)
    ?(campaigns = default_campaigns) ?(policies = default_policies) () =
  Array.of_list
    (List.concat_map
       (fun sc ->
         List.concat_map
           (fun cg ->
             List.concat_map
               (fun policy ->
                 List.init seeds (fun i ->
                     {
                       sf_scenario = sc;
                       sf_campaign = cg;
                       sf_policy = policy;
                       sf_seed = i + 1;
                     }))
               policies)
           campaigns)
       scenarios)

let describe_cell c =
  Printf.sprintf "%s/%s/%s/seed %d" c.sf_scenario.Invariants.sc_name
    c.sf_campaign.sg_name
    (Concurrent.describe c.sf_policy)
    c.sf_seed

type run = {
  sf_engine : Engine.t;
  sf_sites : Sites.t;
  sf_sr : int Concurrent.supervised_report;
  sf_cell : cell;
  sf_alts_count : int;
  sf_sanitizer : Sanitizer.t option;
}

let run_cell ?(sanitize = false) c =
  let engine = Engine.create ~model:Cost_model.att_3b2 ~seed:c.sf_seed () in
  let sanitizer = if sanitize then Some (Sanitizer.attach engine) else None in
  let sites = Sites.create engine ~names:site_names in
  Faultplan.install ~sites (c.sf_campaign.plan ~seed:c.sf_seed) engine;
  let space =
    Address_space.create (Engine.frame_store engine) (Engine.model engine)
  in
  Address_space.set_tracking space true;
  c.sf_scenario.Invariants.prepare engine space;
  ignore (Address_space.drain_cost space);
  let alts = c.sf_scenario.Invariants.alts engine ~seed:c.sf_seed ~source:None in
  let sr =
    Concurrent.run_supervised engine ~policy:c.sf_policy ~space ~sites alts
  in
  {
    sf_engine = engine;
    sf_sites = sites;
    sf_sr = sr;
    sf_cell = c;
    sf_alts_count = List.length alts;
    sf_sanitizer = sanitizer;
  }

(* ------------------------------------------------------------------ *)
(* Epoch-aware checkers.                                               *)

let check rr =
  let c = rr.sf_cell in
  let sr = rr.sf_sr in
  let rep = sr.Concurrent.sr_report in
  let h = History.of_trace (Engine.trace rr.sf_engine) in
  let out = ref [] in
  let viol cls d =
    out :=
      Report.violation cls ~scenario:c.sf_scenario.Invariants.sc_name
        ~policy:(Concurrent.describe c.sf_policy)
        ~seed:c.sf_seed d
      :: !out
  in
  let wins = History.sync_wins_epochs h in
  (* At most one synchronisation win per epoch: the consensus semaphore is
     0-1 within an incarnation, whatever the sites did. *)
  let by_epoch = Hashtbl.create 8 in
  List.iter
    (fun (pid, idx, e) ->
      let l = Option.value ~default:[] (Hashtbl.find_opt by_epoch e) in
      Hashtbl.replace by_epoch e ((pid, idx) :: l))
    wins;
  Hashtbl.iter
    (fun e l ->
      if List.length l > 1 then
        viol Report.At_most_once
          (Printf.sprintf "%d Sync_won events within epoch %d" (List.length l)
             e))
    by_epoch;
  let final_wins = List.filter (fun (_, _, e) -> e = sr.Concurrent.sr_epoch) wins in
  (* Outcome-shaped checks, including transparency against the sequential
     oracle run on the final surviving space. *)
  let compare_space sspace =
    match sr.Concurrent.sr_space with
    | None ->
      viol Report.Transparency
        "a selected outcome left no surviving address space to audit"
    | Some sp ->
      if
        not
          (Page_map.snapshot_equal (Address_space.map sp)
             (Address_space.map sspace))
      then
        viol Report.Transparency
          "the surviving address space differs from a sequential execution \
           of the winning alternative alone"
  in
  (match rep.Concurrent.outcome with
  | Alt_block.Selected { index; value } when not rep.Concurrent.degraded -> (
    if c.sf_campaign.sg_majority_crash then
      viol Report.At_most_once
        "a majority of voter sites crashed before any alternative could \
         synchronise, yet the block claims a selected winner";
    (match (final_wins, rep.Concurrent.winner) with
    | [ (pid, i, _) ], Some w ->
      if not (Pid.equal pid w) then
        viol Report.At_most_once
          (Format.asprintf
             "epoch %d Sync_won by %a but the report names %a as the winner"
             sr.Concurrent.sr_epoch Pid.pp pid Pid.pp w);
      if i <> index then
        viol Report.At_most_once
          (Printf.sprintf
             "epoch %d Sync_won for alternative %d but the outcome selected \
              %d"
             sr.Concurrent.sr_epoch i index)
    | [], _ ->
      viol Report.At_most_once
        (Printf.sprintf
           "outcome is Selected but epoch %d recorded no Sync_won"
           sr.Concurrent.sr_epoch)
    | _ :: _, None ->
      viol Report.At_most_once "a selected outcome reports no winner pid"
    | ws, _ ->
      viol Report.At_most_once
        (Printf.sprintf "%d Sync_won events in the deciding epoch"
           (List.length ws)));
    match
      Invariants.sequential_reference c.sf_scenario ~seed:c.sf_seed
        ~indices:[ index ]
    with
    | Some (Alt_block.Selected { index = 0; value = value' }), sspace, _ ->
      if value' <> value then
        viol Report.Transparency
          (Printf.sprintf
             "winning alternative %d returned %d under site faults but %d \
              sequentially"
             index value value');
      compare_space sspace
    | Some _, _, _ ->
      viol Report.Transparency
        (Printf.sprintf "winning alternative %d fails when re-executed alone"
           index)
    | None, _, _ ->
      viol Report.Transparency "sequential reference execution did not \
                                complete")
  | Alt_block.Selected { index; value } -> (
    (* Degraded: the fallback ran the alternatives sequentially in the
       final incarnation's space, so the oracle is first-fit over all of
       them — and no epoch may claim a speculative win for the deciding
       incarnation. *)
    if final_wins <> [] then
      viol Report.At_most_once
        (Printf.sprintf
           "epoch %d degraded to sequential execution yet recorded Sync_won"
           sr.Concurrent.sr_epoch);
    let indices = List.init rr.sf_alts_count Fun.id in
    match
      Invariants.sequential_reference c.sf_scenario ~seed:c.sf_seed ~indices
    with
    | Some (Alt_block.Selected { index = index'; value = value' }), sspace, _
      ->
      if index' <> index || value' <> value then
        viol Report.Transparency
          (Printf.sprintf
             "degraded block selected alternative %d (value %d) but a \
              sequential execution selects %d (value %d)"
             index value index' value');
      compare_space sspace
    | Some (Alt_block.Block_failed _), _, _ ->
      viol Report.Transparency
        (Printf.sprintf
           "degraded block selected alternative %d but a sequential \
            execution fails"
           index)
    | None, _, _ ->
      viol Report.Transparency "sequential reference execution did not \
                                complete")
  | Alt_block.Block_failed _ ->
    (* Failure under a site campaign is honest (availability, not safety,
       is sacrificed) — but it must be a clean failure: no winner, and no
       win recorded for the epoch that reported it. *)
    (match rep.Concurrent.winner with
    | Some w ->
      viol Report.At_most_once
        (Format.asprintf "a failed block reports %a as a winner" Pid.pp w)
    | None -> ());
    if final_wins <> [] then
      viol Report.At_most_once
        (Printf.sprintf "epoch %d failed yet recorded Sync_won"
           sr.Concurrent.sr_epoch));
  (* Recovery bookkeeping: the report, the trace, and the topology agree. *)
  if sr.Concurrent.sr_incarnations <> 1 + List.length sr.Concurrent.sr_recoveries
  then
    viol Report.Accounting
      (Printf.sprintf "%d incarnations but %d recoveries"
         sr.Concurrent.sr_incarnations
         (List.length sr.Concurrent.sr_recoveries));
  if History.recoveries h <> sr.Concurrent.sr_recoveries then
    viol Report.Accounting
      "the trace's Recovered events do not match the supervised report";
  ignore
    (List.fold_left
       (fun prev (_, _, e) ->
         if e <> prev + 1 then
           viol Report.Accounting
             (Printf.sprintf
                "recovery epochs are not consecutive: %d follows %d" e prev);
         e)
       1 sr.Concurrent.sr_recoveries);
  let sorted = List.sort compare in
  if sorted (History.site_crashes h) <> sorted (Sites.crashed_sites rr.sf_sites)
  then
    viol Report.Accounting
      "traced Site_crashed events do not match the topology's crashed set";
  (* Elimination across incarnations: every child of every coordinator
     exits exactly once, and an [ok] exit is only legitimate for a child
     that won some epoch's synchronisation (the final winner, or an
     orphaned winner whose epoch was fenced before commit — its pages died
     with its incarnation). *)
  let won_some pid = List.exists (fun (p, _, _) -> Pid.equal p pid) wins in
  List.iter
    (fun child ->
      match History.exits_of h child with
      | [ st ] -> (
        let is_winner =
          Option.equal Pid.equal (Some child) rep.Concurrent.winner
        in
        match History.classify_exit st with
        | History.Ok_exit ->
          if (not is_winner) && not (won_some child) then
            viol Report.Elimination
              (Format.asprintf
                 "alternative %a exited ok without ever winning a \
                  synchronisation"
                 Pid.pp child)
        | _ ->
          if is_winner then
            viol Report.Elimination
              (Format.asprintf "the winner %a exited %S" Pid.pp child st))
      | [] ->
        viol Report.Elimination
          (Format.asprintf "child %a has no Exited event" Pid.pp child)
      | l ->
        viol Report.Elimination
          (Format.asprintf "child %a exited %d times" Pid.pp child
             (List.length l)))
    rep.Concurrent.children;
  if Engine.live_count rr.sf_engine <> 0 then
    viol Report.World
      (Printf.sprintf "%d processes still live at quiescence"
         (Engine.live_count rr.sf_engine));
  List.rev !out

(* ------------------------------------------------------------------ *)
(* The campaign driver.                                                *)

let summary rr =
  let sr = rr.sf_sr in
  let rep = sr.Concurrent.sr_report in
  let outcome =
    match rep.Concurrent.outcome with
    | Alt_block.Selected { index; value } ->
      Printf.sprintf "selected(%d)=%d" index value
    | Alt_block.Block_failed r -> Printf.sprintf "failed(%S)" r
  in
  let h = History.of_trace (Engine.trace rr.sf_engine) in
  Printf.sprintf
    "%s: %s epoch=%d incarnations=%d recoveries=%d degraded=%b crashed=[%s] \
     partitions=%d heals=%d injections=%d msgs=%d elapsed=%.9f wasted=%.9f"
    (describe_cell rr.sf_cell) outcome sr.Concurrent.sr_epoch
    sr.Concurrent.sr_incarnations
    (List.length sr.Concurrent.sr_recoveries)
    rep.Concurrent.degraded
    (String.concat "," (Sites.crashed_sites rr.sf_sites))
    (List.length (History.partitions h))
    (List.length (History.heals h))
    (List.length (History.injections h))
    rep.Concurrent.sync_messages rep.Concurrent.elapsed
    rep.Concurrent.wasted_cpu

type result = {
  cells_run : int;
  violations : Report.violation list;
  lines : string list;
  mismatches : string list;
  first_failing : cell option;
}

let render_violations vs =
  List.map (fun v -> Format.asprintf "%a" Report.pp_violation v) vs

(* [check] plus, when the cell ran sanitized, the streaming-vs-post-mortem
   cross-check (agreement adds nothing; divergence is a Sanitizer-class
   violation). *)
let check_crossed rr =
  let vs = check rr in
  match rr.sf_sanitizer with
  | None -> vs
  | Some sz ->
    Sanitizer.detach sz;
    let c = rr.sf_cell in
    vs
    @ Sanitizer.crosscheck sz ~oracle:vs
        ~scenario:c.sf_scenario.Invariants.sc_name
        ~policy:(Concurrent.describe c.sf_policy)
        ~seed:c.sf_seed

let run ?(jobs = 1) ?seeds ?scenarios ?campaigns ?policies ?(verify = false)
    ?sanitize () =
  let cs = cells ?seeds ?scenarios ?campaigns ?policies () in
  let results =
    Parallel.map_indexed_shared ~jobs
      (fun i ->
        let c = cs.(i) in
        let rr = run_cell ?sanitize c in
        let vs = check_crossed rr in
        let line = summary rr in
        let mismatch =
          if not verify then None
          else begin
            (* Determinism contract: a fresh engine, topology and plan from
               the same seeds must reproduce the digest and the violations
               byte for byte. *)
            let rr' = run_cell ?sanitize c in
            let vs' = check_crossed rr' in
            let line' = summary rr' in
            if line <> line' || render_violations vs <> render_violations vs'
            then
              Some
                (Printf.sprintf "%s\n  first : %s\n  second: %s"
                   (describe_cell c) line line')
            else None
          end
        in
        (line, vs, mismatch))
      (Array.length cs)
  in
  let violations =
    List.concat_map (fun (_, vs, _) -> vs) (Array.to_list results)
  in
  let lines = List.map (fun (l, _, _) -> l) (Array.to_list results) in
  let mismatches =
    List.filter_map (fun (_, _, m) -> m) (Array.to_list results)
  in
  let first_failing =
    let rec find i =
      if i >= Array.length results then None
      else
        let _, vs, _ = results.(i) in
        if vs <> [] then Some cs.(i) else find (i + 1)
    in
    find 0
  in
  { cells_run = Array.length cs; violations; lines; mismatches; first_failing }
