(* The invariant sweep as campaigns over the invariant scenarios: one cell
   matrix and one runner for the clean sweep and both kinds of fault
   campaign.

   The clean campaign installs the empty plan, so its cells are the
   healthy executions. A message campaign attacks individual messages and
   processes. A site campaign attacks whole failure domains: its cell runs
   the block under {!Concurrent.run_supervised} on the five-site topology,
   with the consensus voters spread one per site and site crashes and
   network partitions injected from the plan seed. Every cell runs through
   {!Invariants.run_checked}, so one oracle judges every kind; this module
   adds only the campaign's own claim that a lost voter majority cannot
   select a winner. *)

type t = {
  cg_name : string;
  cg_doc : string;
  plan : seed:int -> Faultplan.t;
  cg_supervised : bool;
  cg_majority_crash : bool;
      (* the campaign takes down a voter majority before any alternative
         can synchronise, so a clean Selected outcome would be a lie *)
}

(* Campaign plan seeds are derived from the cell seed with distinct odd
   multipliers so no two campaigns share a Bernoulli or jitter stream for
   the same cell, and none coincides with the engine's own seed. *)
let message_campaigns =
  [
    {
      cg_name = "drop-replies";
      cg_doc = "drop 30% of consensus replies (vote_rep)";
      cg_supervised = false;
      cg_majority_crash = false;
      plan =
        (fun ~seed ->
          Faultplan.make ~seed:((seed * 31) + 1)
            [ Faultplan.message ~p:0.3 ~tag:"vote_rep" Faultplan.Drop ]);
    };
    {
      cg_name = "drop-requests";
      cg_doc = "drop 30% of consensus requests (vote_req)";
      cg_supervised = false;
      cg_majority_crash = false;
      plan =
        (fun ~seed ->
          Faultplan.make ~seed:((seed * 37) + 2)
            [ Faultplan.message ~p:0.3 ~tag:"vote_req" Faultplan.Drop ]);
    };
    {
      cg_name = "dup-replies";
      cg_doc = "duplicate half of the consensus replies";
      cg_supervised = false;
      cg_majority_crash = false;
      plan =
        (fun ~seed ->
          Faultplan.make ~seed:((seed * 41) + 3)
            [ Faultplan.message ~p:0.5 ~tag:"vote_rep" Faultplan.Duplicate ]);
    };
    {
      cg_name = "reorder-consensus";
      cg_doc = "reorder 40% of consensus traffic past its channel order";
      cg_supervised = false;
      cg_majority_crash = false;
      plan =
        (fun ~seed ->
          Faultplan.make ~seed:((seed * 43) + 4)
            [
              Faultplan.message ~p:0.4 ~tag:"vote_rep" (Faultplan.Reorder 0.02);
              Faultplan.message ~p:0.4 ~tag:"vote_req" (Faultplan.Reorder 0.02);
            ]);
    };
    {
      cg_name = "delay-storm";
      cg_doc = "+0.25s on every message sent in [0.001, 0.05] (timeout storm)";
      cg_supervised = false;
      cg_majority_crash = false;
      plan =
        (fun ~seed ->
          Faultplan.make ~seed:((seed * 47) + 5)
            [ Faultplan.storm ~window:(0.001, 0.05) 0.25 ]);
    };
    {
      cg_name = "voter-crash";
      cg_doc = "crash voter0 just after spawn; heal the partition at +0.1s";
      cg_supervised = false;
      cg_majority_crash = false;
      plan =
        (fun ~seed ->
          Faultplan.make ~seed:((seed * 53) + 6)
            [ Faultplan.crash_process ~after:0.0005 ~revive_after:0.1 "voter0" ]);
    };
    {
      cg_name = "child-kill";
      cg_doc = "kill the first alternative child 3ms into its run";
      cg_supervised = false;
      cg_majority_crash = false;
      plan =
        (fun ~seed ->
          Faultplan.make ~seed:((seed * 59) + 7)
            [ Faultplan.kill_process ~after:0.003 "[" ]);
    };
  ]

let site_campaigns =
  [
    {
      cg_name = "crash-minority";
      cg_doc = "crash two voter sites (s1, s3); a 3-of-5 quorum survives";
      cg_supervised = true;
      cg_majority_crash = false;
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
      cg_name = "crash-coordinator";
      cg_doc = "crash s0 (coordinator, children, voter0) mid-run: watchdog \
                recovery on a surviving site";
      cg_supervised = true;
      cg_majority_crash = false;
      plan =
        (fun ~seed ->
          Faultplan.make ~seed:((seed * 67) + 12)
            [ Faultplan.crash_site ~at:0.07 ~jitter:0.015 "s0" ]);
    };
    {
      cg_name = "partition-minority";
      cg_doc = "cut {s3,s4} off across the sync window; the majority side \
                keeps quorum";
      cg_supervised = true;
      cg_majority_crash = false;
      plan =
        (fun ~seed ->
          Faultplan.make ~seed:((seed * 71) + 13)
            [
              Faultplan.partition_sites ~at:0.075 ~jitter:0.005
                ~heal_after:0.05 [ "s3"; "s4" ] [ "s0"; "s1"; "s2" ];
            ]);
    };
    {
      cg_name = "partition-quorum-loss";
      cg_doc = "isolate the coordinator's site across the sync window, then \
                heal: retries must carry the block over the outage";
      cg_supervised = true;
      cg_majority_crash = false;
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
      cg_name = "crash-majority";
      cg_doc = "crash three voter sites before anyone can synchronise: the \
                block must degrade or fail, never select";
      cg_supervised = true;
      cg_majority_crash = true;
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

let consensus nodes =
  Concurrent.Consensus
    { nodes; crashed = []; vote_delay = 0.0002; reply_timeout = 0.05 }

(* Retry on no-quorum and fail honestly if the outage persists; the same,
   degrading to sequential execution rather than failing. *)
let retrying nodes =
  let retry =
    {
      Concurrent.default_policy with
      Concurrent.sync = consensus nodes;
      sync_retries = 2;
      sync_backoff = 0.02;
    }
  in
  [ retry; { retry with Concurrent.degradation = Concurrent.Sequential_fallback } ]

let message_policies =
  retrying 3
  @ [
      (* No retries, a tight alt_wait deadline, asynchronous elimination:
         the storm campaigns drive this one through the timeout-degrade
         path (and so through Ivar.read_timeout on the consensus path). *)
      {
        Concurrent.default_policy with
        Concurrent.sync = consensus 3;
        elimination = Concurrent.Async_elim;
        timeout = 0.08;
        degradation = Concurrent.Sequential_fallback;
      };
      (* Local-latch control row: consensus-message campaigns find nothing
         to bite; process faults and storms still apply. *)
      {
        Concurrent.default_policy with
        Concurrent.elimination = Concurrent.Sync_elim;
      };
    ]

type family = {
  fm_seeds : int;
  fm_scenarios : Invariants.scenario list;
  fm_campaigns : t list;
  fm_policies : Concurrent.policy list;
}

let messages =
  {
    fm_seeds = 5;
    fm_scenarios = Invariants.default_scenarios;
    fm_campaigns = message_campaigns;
    fm_policies = message_policies;
  }

(* Source devices and coordinator restarts do not mix (a restarted
   incarnation would re-read consumed input), so the site matrix runs the
   sourceless scenarios only. *)
let sites =
  {
    fm_seeds = 3;
    fm_scenarios =
      List.filter
        (fun sc -> not sc.Invariants.uses_source)
        Invariants.default_scenarios;
    fm_campaigns = site_campaigns;
    fm_policies = retrying 5;
  }

(* [Faultplan.none] installs no hook and schedules nothing: a clean cell
   runs exactly as [Invariants.run_checked] does without [~faults]. *)
let clean =
  {
    fm_seeds = 5;
    fm_scenarios = Invariants.default_scenarios;
    fm_campaigns =
      [
        {
          cg_name = "clean";
          cg_doc = "no faults: the healthy execution";
          cg_supervised = false;
          cg_majority_crash = false;
          plan = (fun ~seed:_ -> Faultplan.none);
        };
      ];
    fm_policies = Invariants.policy_matrix;
  }

let site_names = [ "s0"; "s1"; "s2"; "s3"; "s4" ]

type cell = {
  cl_scenario : Invariants.scenario;
  cl_campaign : t;
  cl_policy : Concurrent.policy;
  cl_seed : int;
}

let cells f =
  Array.of_list
    (List.concat_map
       (fun sc ->
         List.concat_map
           (fun cg ->
             if cg.cg_supervised && sc.Invariants.uses_source then
               invalid_arg
                 (Printf.sprintf
                    "Campaign.cells: scenario %s reads a source device, which \
                     a restarted coordinator would re-read; it cannot run \
                     under the supervised campaign %s"
                    sc.Invariants.sc_name cg.cg_name);
             List.concat_map
               (fun policy ->
                 List.init f.fm_seeds (fun i ->
                     {
                       cl_scenario = sc;
                       cl_campaign = cg;
                       cl_policy = policy;
                       cl_seed = i + 1;
                     }))
               f.fm_policies)
           f.fm_campaigns)
       f.fm_scenarios)

let describe_cell c =
  Printf.sprintf "%s/%s/%s/seed %d" c.cl_scenario.Invariants.sc_name
    c.cl_campaign.cg_name
    (Concurrent.describe c.cl_policy)
    c.cl_seed

let outcome_string rep =
  match rep.Concurrent.outcome with
  | Alt_block.Selected { index; value } ->
    Printf.sprintf "selected(%d)=%d" index value
  | Alt_block.Block_failed r -> Printf.sprintf "failed(%S)" r

(* ------------------------------------------------------------------ *)
(* The executor: one checked run per cell, supervised on the five-site
   topology for a site campaign.                                        *)

let summary c (rr : Invariants.run) =
  let rep = rr.Invariants.report in
  let h = rr.Invariants.history in
  let injections = List.length (History.injections h) in
  match rr.Invariants.supervised with
  | None ->
    Printf.sprintf
      "%s: %s degraded=%b attempted=%d injections=%d msgs=%d elapsed=%.9f \
       wasted=%.9f"
      (describe_cell c) (outcome_string rep) rep.Concurrent.degraded
      rep.Concurrent.attempted injections rep.Concurrent.sync_messages
      rep.Concurrent.elapsed rep.Concurrent.wasted_cpu
  | Some (sites, sr) ->
    Printf.sprintf
      "%s: %s epoch=%d incarnations=%d recoveries=%d degraded=%b \
       crashed=[%s] partitions=%d heals=%d injections=%d msgs=%d \
       elapsed=%.9f wasted=%.9f"
      (describe_cell c) (outcome_string rep) sr.Concurrent.sr_epoch
      sr.Concurrent.sr_incarnations
      (List.length sr.Concurrent.sr_recoveries)
      rep.Concurrent.degraded
      (String.concat "," (Sites.crashed_sites sites))
      (History.partitions h) (History.heals h) injections
      rep.Concurrent.sync_messages rep.Concurrent.elapsed
      rep.Concurrent.wasted_cpu

(* A campaign that takes a voter majority down before anyone can
   synchronise leaves no quorum to select with: a clean [Selected] outcome
   is a phantom winner. *)
let phantom_winner c (rr : Invariants.run) =
  let rep = rr.Invariants.report in
  match rep.Concurrent.outcome with
  | Alt_block.Selected _
    when c.cl_campaign.cg_majority_crash && not rep.Concurrent.degraded ->
    [
      Report.violation Report.At_most_once
        ~scenario:c.cl_scenario.Invariants.sc_name
        ~policy:(Concurrent.describe c.cl_policy)
        ~seed:c.cl_seed
        "a majority of voter sites crashed before any alternative could \
         synchronise, yet the block claims a selected winner";
    ]
  | _ -> []

let execute ?record ?sanitize c =
  let sites = if c.cl_campaign.cg_supervised then Some site_names else None in
  let rr, vs =
    Invariants.run_checked ?record
      ~faults:(c.cl_campaign.plan ~seed:c.cl_seed)
      ?sites ?sanitize c.cl_scenario ~policy:c.cl_policy ~seed:c.cl_seed
  in
  (rr, vs @ phantom_winner c rr)

(* A cell's summary line and violations; the run itself is dropped here,
   so a sweep holds one engine per busy domain, not one per cell. *)
let run_cell ?sanitize c =
  let rr, vs = execute ?sanitize c in
  (summary c rr, vs)

(* ------------------------------------------------------------------ *)
(* The runner, fanned out over a domain pool.

   Every cell of the matrix is an independent simulation:
   {!Invariants.run_scenario} builds a fresh [Engine.t] (own event queue,
   trace, frame store, process table, RNG), a fresh address space, a
   fresh source device and, for a site campaign, a fresh topology, and
   the checkers only read that run's state. Audit of everything a cell
   touches (2026-08, for the sweep's domain parallelism):

   - [Engine] / [Event_queue] / [Trace] / [Fate_registry]: all state
     hangs off the [Engine.t] created per cell; effect handlers are
     per-engine, not global.
   - [Frame_store] / [Address_space] / [Page_map] / [Checkpoint]:
     reached only through the per-engine frame store.
   - [Majority] / [Source]: spawn processes inside the cell's engine;
     their counters live in the values returned by [create].
   - [Rng]: generators are values; scenarios derive theirs from the
     cell seed, and a fault plan its stream from the plan seed.
     [Pid.Allocator] instances are per-engine.
   - Top-level mutable state in alt_base, alt_pages, alt_predicate,
     alt_msg, alt_runtime, alt_consensus, alt_sites, alt_sources,
     alt_faultplan, altexec and alt_analysis (checked: module-level
     [ref], [Hashtbl.create], [Buffer.create], [Mutex], [Domain.DLS], and
     [mutable] record fields reachable from a toplevel binding) is two
     pools and one inert value.
     [Frame_store]'s free-frame pool is per domain ([Domain.DLS]), and
     reuse from it is unobservable: a pooled frame is zero-filled and
     takes the allocating store's next id. [Parallel]'s shared pool sits
     behind its own mutex and hands results back in index order.
     [Page_map]'s table filler is a frame of a private store that no map
     holds, so nothing ever writes it or counts a reference on it. [Predicate] holds no state.

   Results are collected by {!Parallel.map_indexed_shared} in index
   order, so a parallel sweep reports byte-for-byte what the sequential
   sweep reports, whatever the domain count. *)

type result = {
  cells_run : int;
  violations : Report.violation list;
  lines : string list;
  mismatches : string list;
  first_failing : cell option;
}

let render_violations vs =
  List.map (fun v -> Format.asprintf "%a" Report.pp_violation v) vs

let run ?(jobs = 1) ?(verify = false) ?sanitize cs =
  let run_cell = run_cell ?sanitize in
  let results =
    Parallel.map_indexed_shared ~jobs
      (fun i ->
        let c = cs.(i) in
        let line, vs = run_cell c in
        let mismatch =
          if not verify then None
          else begin
            (* The determinism contract: a fresh execution of the same
               cell — fresh engine and topology, fresh plan from the same
               two seeds — must reproduce the summary and the violations
               byte for byte. *)
            let line', vs' = run_cell c in
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
  let results = Array.to_list results in
  let first_failing =
    List.find_map
      (fun (c, (_, vs, _)) -> if vs <> [] then Some c else None)
      (List.combine (Array.to_list cs) results)
  in
  {
    cells_run = Array.length cs;
    violations = List.concat_map (fun (_, vs, _) -> vs) results;
    lines = List.map (fun (l, _, _) -> l) results;
    mismatches = List.filter_map (fun (_, _, m) -> m) results;
    first_failing;
  }
