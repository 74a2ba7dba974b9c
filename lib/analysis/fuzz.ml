type campaign = {
  cg_name : string;
  cg_doc : string;
  plan : seed:int -> Faultplan.t;
}

(* Campaign plan seeds are derived from the cell seed with distinct odd
   multipliers so no two campaigns share a Bernoulli stream for the same
   cell, and none coincides with the engine's own seed. *)
let default_campaigns =
  [
    {
      cg_name = "drop-replies";
      cg_doc = "drop 30% of consensus replies (vote_rep)";
      plan =
        (fun ~seed ->
          Faultplan.make ~seed:((seed * 31) + 1)
            [ Faultplan.message ~p:0.3 ~tag:"vote_rep" Faultplan.Drop ]);
    };
    {
      cg_name = "drop-requests";
      cg_doc = "drop 30% of consensus requests (vote_req)";
      plan =
        (fun ~seed ->
          Faultplan.make ~seed:((seed * 37) + 2)
            [ Faultplan.message ~p:0.3 ~tag:"vote_req" Faultplan.Drop ]);
    };
    {
      cg_name = "dup-replies";
      cg_doc = "duplicate half of the consensus replies";
      plan =
        (fun ~seed ->
          Faultplan.make ~seed:((seed * 41) + 3)
            [ Faultplan.message ~p:0.5 ~tag:"vote_rep" Faultplan.Duplicate ]);
    };
    {
      cg_name = "reorder-consensus";
      cg_doc = "reorder 40% of consensus traffic past its channel order";
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
      plan =
        (fun ~seed ->
          Faultplan.make ~seed:((seed * 47) + 5)
            [ Faultplan.storm ~window:(0.001, 0.05) 0.25 ]);
    };
    {
      cg_name = "voter-crash";
      cg_doc = "crash voter0 just after spawn; heal the partition at +0.1s";
      plan =
        (fun ~seed ->
          Faultplan.make ~seed:((seed * 53) + 6)
            [ Faultplan.crash_process ~after:0.0005 ~revive_after:0.1 "voter0" ]);
    };
    {
      cg_name = "child-kill";
      cg_doc = "kill the first alternative child 3ms into its run";
      plan =
        (fun ~seed ->
          Faultplan.make ~seed:((seed * 59) + 7)
            [ Faultplan.kill_process ~after:0.003 "[" ]);
    };
  ]

let consensus3 =
  Concurrent.Consensus
    { nodes = 3; crashed = []; vote_delay = 0.0002; reply_timeout = 0.05 }

let default_policies =
  [
    (* Retry on no-quorum, fail honestly if the outage persists. *)
    {
      Concurrent.default_policy with
      Concurrent.sync = consensus3;
      sync_retries = 2;
      sync_backoff = 0.02;
    };
    (* Retry, and degrade to sequential execution rather than fail. *)
    {
      Concurrent.default_policy with
      Concurrent.sync = consensus3;
      sync_retries = 2;
      sync_backoff = 0.02;
      degradation = Concurrent.Sequential_fallback;
    };
    (* No retries, a tight alt_wait deadline, asynchronous elimination:
       the storm campaigns drive this one through the timeout-degrade
       path (and so through Ivar.read_timeout on the consensus path). *)
    {
      Concurrent.default_policy with
      Concurrent.sync = consensus3;
      elimination = Concurrent.Async_elim;
      timeout = 0.08;
      degradation = Concurrent.Sequential_fallback;
    };
    (* Local-latch control row: consensus-message campaigns find nothing
       to bite; process faults and storms still apply. *)
    { Concurrent.default_policy with Concurrent.elimination = Concurrent.Sync_elim };
  ]

type cell = {
  fc_scenario : Invariants.scenario;
  fc_campaign : campaign;
  fc_policy : Concurrent.policy;
  fc_seed : int;
}

let cells ?(seeds = 5) ?(scenarios = Invariants.default_scenarios)
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
                       fc_scenario = sc;
                       fc_campaign = cg;
                       fc_policy = policy;
                       fc_seed = i + 1;
                     }))
               policies)
           campaigns)
       scenarios)

let describe_cell c =
  Printf.sprintf "%s/%s/%s/seed %d" c.fc_scenario.Invariants.sc_name
    c.fc_campaign.cg_name
    (Concurrent.describe c.fc_policy)
    c.fc_seed

let run_cell ?sanitize c =
  let faults eng = Faultplan.install (c.fc_campaign.plan ~seed:c.fc_seed) eng in
  Invariants.run_checked ~faults ?sanitize c.fc_scenario
    ~policy:c.fc_policy ~seed:c.fc_seed

let summary c (rr : Invariants.run) =
  let rep = rr.Invariants.report in
  let outcome =
    match rep.Concurrent.outcome with
    | Alt_block.Selected { index; value } ->
      Printf.sprintf "selected(%d)=%d" index value
    | Alt_block.Block_failed r -> Printf.sprintf "failed(%S)" r
  in
  let h = History.of_trace (Engine.trace rr.Invariants.engine) in
  Printf.sprintf
    "%s: %s degraded=%b attempted=%d injections=%d msgs=%d elapsed=%.9f \
     wasted=%.9f"
    (describe_cell c) outcome rep.Concurrent.degraded rep.Concurrent.attempted
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

let run ?(jobs = 1) ?seeds ?scenarios ?campaigns ?policies ?(verify = false)
    ?sanitize () =
  let cs = cells ?seeds ?scenarios ?campaigns ?policies () in
  let results =
    Parallel.map_indexed_shared ~jobs
      (fun i ->
        let c = cs.(i) in
        let rr, vs = run_cell ?sanitize c in
        let line = summary c rr in
        let mismatch =
          if not verify then None
          else begin
            (* The determinism contract: a fresh execution of the same
               cell — fresh engine, fresh plan from the same two seeds —
               must reproduce the summary and the violations byte for
               byte. *)
            let rr', vs' = run_cell ?sanitize c in
            let line' = summary c rr' in
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
