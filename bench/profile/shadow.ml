(* Every block below mirrors the matching part of lib/serve/server.ml;
   the comments there give the reasons. What this copy adds is a span
   around each call into a layer and a few counters read around the
   block calls. Keep it call-for-call with the original: the digest
   guard in Profile rejects any divergence. *)

type counters = {
  mutable blocks : int;
  mutable events : int;
  mutable mailbox_scanned : int;
  mutable spawned : int;
  mutable sync_messages : int;
  mutable cow_copies : int;
  mutable frame_allocs : int;
  mutable minor_words : float;
  mutable selected : int;
  mutable attempted : int;
  mutable restarts : int;
  mutable breaker_calls : int;
  mutable sanitizer_flags : int;
  mutable audit_violations : int;
}

let zero () =
  {
    blocks = 0;
    events = 0;
    mailbox_scanned = 0;
    spawned = 0;
    sync_messages = 0;
    cow_copies = 0;
    frame_allocs = 0;
    minor_words = 0.;
    selected = 0;
    attempted = 0;
    restarts = 0;
    breaker_calls = 0;
    sanitizer_flags = 0;
    audit_violations = 0;
  }

let add_into t c =
  t.blocks <- t.blocks + c.blocks;
  t.events <- t.events + c.events;
  t.mailbox_scanned <- t.mailbox_scanned + c.mailbox_scanned;
  t.spawned <- t.spawned + c.spawned;
  t.sync_messages <- t.sync_messages + c.sync_messages;
  t.cow_copies <- t.cow_copies + c.cow_copies;
  t.frame_allocs <- t.frame_allocs + c.frame_allocs;
  t.minor_words <- t.minor_words +. c.minor_words;
  t.selected <- t.selected + c.selected;
  t.attempted <- t.attempted + c.attempted;
  t.restarts <- t.restarts + c.restarts;
  t.breaker_calls <- t.breaker_calls + c.breaker_calls;
  t.sanitizer_flags <- t.sanitizer_flags + c.sanitizer_flags;
  t.audit_violations <- t.audit_violations + c.audit_violations

type admission = {
  requests : int;
  quota_rejected : int;
  controller_shed : int;
  transitions : int;
  batches : int;
  admitted : int;
}

(* ------------------------------------------------------------------ *)
(* Phase 1: admission and batch formation. *)

type open_batch = {
  ob_seq : int;
  ob_scenario : string;
  ob_policy : int;
  ob_level : int;
  ob_deadline : float;
  mutable ob_jobs : Workload.request list;
  mutable ob_count : int;
}

type closed_batch = {
  cb_id : int;
  cb_scenario : string;
  cb_policy : int;
  cb_level : int;
  cb_close : float;
  cb_jobs : Workload.request array;
}

let close_batch ~id ~at ob =
  {
    cb_id = id;
    cb_scenario = ob.ob_scenario;
    cb_policy = ob.ob_policy;
    cb_level = ob.ob_level;
    cb_close = at;
    cb_jobs = Array.of_list (List.rev ob.ob_jobs);
  }

let plan (wl : Workload.config) (sv : Server.config) requests =
  let tenant_quotas =
    Array.init wl.Workload.wl_tenants (fun _ ->
        Quota.create ~rate:sv.Server.sv_quota_rate ~burst:sv.Server.sv_quota_burst)
  in
  let scenario_quotas =
    if sv.Server.sv_scenario_rate <= 0. then []
    else
      List.map
        (fun s ->
          ( s,
            Quota.create ~rate:sv.Server.sv_scenario_rate
              ~burst:sv.Server.sv_scenario_burst ))
        wl.Workload.wl_scenarios
  in
  let global_quota =
    if sv.Server.sv_global_rate <= 0. then None
    else
      Some
        (Quota.create ~rate:sv.Server.sv_global_rate
           ~burst:sv.Server.sv_global_burst)
  in
  let ladder = Controller.create sv.Server.sv_ladder in
  let opens : open_batch list ref = ref [] in
  let open_seq = ref 0 in
  let closed = ref [] in
  let n_closed = ref 0 in
  let rejected = ref [] in
  let quota_rejected = ref 0 in
  let emit_close ~at ob =
    closed := close_batch ~id:!n_closed ~at ob :: !closed;
    incr n_closed
  in
  let expire now =
    let due, live = List.partition (fun ob -> ob.ob_deadline <= now) !opens in
    opens := live;
    List.sort
      (fun a b ->
        match compare a.ob_deadline b.ob_deadline with
        | 0 -> compare a.ob_seq b.ob_seq
        | c -> c)
      due
    |> List.iter (fun ob -> emit_close ~at:ob.ob_deadline ob)
  in
  Array.iter
    (fun (rq : Workload.request) ->
      let now = rq.Workload.rq_arrival in
      expire now;
      let buckets =
        (tenant_quotas.(rq.Workload.rq_tenant)
        ::
        (match List.assoc_opt rq.Workload.rq_scenario scenario_quotas with
        | Some q -> [ q ]
        | None -> []))
        @ match global_quota with Some q -> [ q ] | None -> []
      in
      let h = Span.enter Span.Quota ~rid:rq.Workload.rq_id in
      let refused =
        if Quota.admit_all buckets ~now then None
        else
          Some
            (List.fold_left
               (fun acc q -> Float.min acc (Quota.tokens q ~now))
               infinity buckets)
      in
      Span.leave h;
      match refused with
      | Some tokens ->
          incr quota_rejected;
          rejected := (rq, Server.Quota_exhausted { tokens }) :: !rejected
      | None -> (
          let cls =
            rq.Workload.rq_scenario ^ "/" ^ string_of_int rq.Workload.rq_policy
          in
          let h = Span.enter Span.Controller ~rid:rq.Workload.rq_id in
          let decision =
            Controller.decide ladder ~cls ~now ~work:rq.Workload.rq_work
          in
          Span.leave h;
          match decision with
          | Controller.Shed { backlog } ->
              rejected := (rq, Server.Overload { backlog }) :: !rejected
          | Controller.Admit { level } ->
              let key ob =
                String.equal ob.ob_scenario rq.Workload.rq_scenario
                && ob.ob_policy = rq.Workload.rq_policy
                && ob.ob_level = level
              in
              let ob =
                match List.find_opt key !opens with
                | Some ob -> ob
                | None ->
                    let ob =
                      {
                        ob_seq = !open_seq;
                        ob_scenario = rq.Workload.rq_scenario;
                        ob_policy = rq.Workload.rq_policy;
                        ob_level = level;
                        ob_deadline = now +. sv.Server.sv_window;
                        ob_jobs = [];
                        ob_count = 0;
                      }
                    in
                    incr open_seq;
                    opens := !opens @ [ ob ];
                    ob
              in
              ob.ob_jobs <- rq :: ob.ob_jobs;
              ob.ob_count <- ob.ob_count + 1;
              if ob.ob_count >= sv.Server.sv_max_batch then begin
                opens := List.filter (fun o -> o != ob) !opens;
                emit_close ~at:now ob
              end))
    requests;
  expire infinity;
  let batches = Array.of_list (List.rev !closed) in
  let admission =
    {
      requests = Array.length requests;
      quota_rejected = !quota_rejected;
      controller_shed = Controller.overload_sheds ladder;
      transitions = Controller.transitions ladder;
      batches = Array.length batches;
      admitted =
        Array.fold_left (fun n cb -> n + Array.length cb.cb_jobs) 0 batches;
    }
  in
  (batches, List.rev !rejected, admission, Controller.peak_pressure ladder)

(* ------------------------------------------------------------------ *)
(* Phase 2: batch execution. *)

type job_result = {
  jr_verdict : Server.verdict;
  jr_elapsed : float;
  jr_wasted : float;
  jr_violations : Report.violation list;
}

let resolve_scenario name =
  match Invariants.find_scenario name with
  | Some sc -> sc
  | None -> invalid_arg (Printf.sprintf "Shadow.run: unknown scenario %S" name)

let resolve_policy idx =
  match List.nth_opt Invariants.policy_matrix idx with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Shadow.run: policy index %d" idx)

let proven_exclusive = function "guarded" | "all-fail" -> true | _ -> false
let fault_sites = [ "s0"; "s1"; "s2"; "s3"; "s4" ]

let fault_rules cb_id =
  match cb_id mod 3 with
  | 0 -> [ Faultplan.crash_site ~at:0.06 ~jitter:0.02 "s0" ]
  | 1 ->
      [
        Faultplan.partition_sites ~at:0.06 ~jitter:0.02 ~heal_after:0.08
          [ "s0" ]
          [ "s1"; "s2"; "s3"; "s4" ];
      ]
  | _ -> []

let run_sequential engine ~space alts =
  let outcome = ref None in
  let t0 = Engine.now engine in
  let pid =
    Engine.spawn engine ~space ~cloneable:false ~name:"alt-seq" (fun ctx ->
        outcome := Some (Alt_block.run_first ctx alts))
  in
  Engine.preserve_space engine pid;
  Engine.run engine;
  (!outcome, Engine.now engine -. t0)

let audit c (violations : Report.violation list) =
  c.audit_violations <- c.audit_violations + List.length violations

let execute_batch (wl : Workload.config) (sv : Server.config) (cb : closed_batch) =
  let c = zero () in
  let engine =
    Span.wrap Span.Engine_create ~rid:cb.cb_id (fun () ->
        Engine.create ~model:Cost_model.att_3b2
          ~seed:((wl.Workload.wl_seed * 1_000_003) + cb.cb_id)
          ~trace:false ~shards:(max 1 sv.Server.sv_shards) ())
  in
  let sites =
    match sv.Server.sv_faults with
    | None -> None
    | Some fseed ->
        Span.wrap Span.Sites ~rid:cb.cb_id (fun () ->
            let sites = Sites.create engine ~names:fault_sites in
            let plan =
              Faultplan.make
                ~seed:((fseed * 1_000_003) + cb.cb_id)
                (fault_rules cb.cb_id)
            in
            Faultplan.install ~sites plan engine;
            Some sites)
  in
  let breakers = Hashtbl.create 8 in
  let breaker site =
    c.breaker_calls <- c.breaker_calls + 1;
    match Hashtbl.find_opt breakers site with
    | Some b -> b
    | None ->
        let b = Breaker.create sv.Server.sv_breaker in
        Hashtbl.add breakers site b;
        b
  in
  let sanitizer =
    if sv.Server.sv_sanitize then
      Some
        (Span.wrap Span.Sanitizer ~rid:cb.cb_id (fun () ->
             Sanitizer.attach engine))
    else None
  in
  let scenario = resolve_scenario cb.cb_scenario in
  let policy = resolve_policy cb.cb_policy in
  let consensus_policy =
    match policy.Concurrent.sync with
    | Concurrent.Consensus _ -> true
    | Concurrent.Local -> false
  in
  let eff_policy, eff_exclusive, eff_level =
    match cb.cb_level with
    | 0 -> (policy, false, 0)
    | 1 when consensus_policy && proven_exclusive cb.cb_scenario ->
        (policy, true, 1)
    | 1 when consensus_policy ->
        ({ policy with Concurrent.sync = Concurrent.Local }, false, 1)
    | 1 -> (policy, false, 0)
    | _ -> ({ policy with Concurrent.sync = Concurrent.Local }, false, 2)
  in
  Array.map
    (fun (rq : Workload.request) ->
      let rid = rq.Workload.rq_id in
      let space, alts =
        Span.wrap Span.Prepare ~rid (fun () ->
            let space =
              Address_space.create (Engine.frame_store engine)
                (Engine.model engine)
            in
            Address_space.set_tracking space true;
            scenario.Invariants.prepare engine space;
            ignore (Address_space.drain_cost space);
            let source =
              if not scenario.Invariants.uses_source then None
              else begin
                let s =
                  Source.create engine
                    ~name:
                      (Printf.sprintf "%s-tty-%d" scenario.Invariants.sc_name
                         rq.Workload.rq_id)
                in
                Source.feed s scenario.Invariants.source_script;
                Some s
              end
            in
            (match (sanitizer, source) with
            | Some sz, Some src ->
                Span.wrap Span.Sanitizer ~rid (fun () ->
                    Sanitizer.observe_source sz src)
            | _ -> ());
            ( space,
              scenario.Invariants.alts engine ~seed:rq.Workload.rq_seed ~source
            ))
      in
      let t_start = Engine.now engine in
      let deadline = t_start +. sv.Server.sv_deadline in
      let jr =
        if eff_level = 2 then begin
          let outcome, elapsed =
            Span.wrap Span.Sequential ~rid (fun () ->
                run_sequential engine ~space alts)
          in
          match outcome with
          | None ->
              {
                jr_verdict = Server.Failed "coordinator lost";
                jr_elapsed = elapsed;
                jr_wasted = 0.;
                jr_violations = [];
              }
          | Some outcome ->
              let attempted =
                match outcome with
                | Alt_block.Selected { index; _ } -> index + 1
                | Alt_block.Block_failed _ -> List.length alts
              in
              let rep =
                {
                  Concurrent.outcome;
                  winner = None;
                  children = [];
                  elapsed;
                  setup_cost = 0.;
                  spawned = 0;
                  selection_cost = 0.;
                  wasted_cpu = 0.;
                  child_cow_copies = 0;
                  sync_messages = 0;
                  attempted;
                  degraded = true;
                }
              in
              let violations =
                Span.wrap Span.Invariants ~rid (fun () ->
                    Invariants.check_report ~scenario:cb.cb_scenario
                      ~policy:eff_policy ~seed:rq.Workload.rq_seed rep)
              in
              audit c violations;
              let verdict =
                match outcome with
                | Alt_block.Selected { index; value } ->
                    Server.Served_degraded { alt = index; value; level = 2 }
                | Alt_block.Block_failed reason -> Server.Failed reason
              in
              {
                jr_verdict = verdict;
                jr_elapsed = elapsed;
                jr_wasted = 0.;
                jr_violations = violations;
              }
        end
        else begin
          let supervise =
            Option.is_some sites && consensus_policy && eff_level = 0
          in
          if supervise then begin
            let sites = Option.get sites in
            let avoid =
              List.filter
                (fun s -> not (Breaker.allow (breaker s) ~now:t_start))
                fault_sites
            in
            let sr =
              Span.wrap Span.Supervised ~rid (fun () ->
                  Concurrent.run_supervised engine ~policy ~space
                    ~max_restarts:sv.Server.sv_retry_budget ~deadline
                    ~avoid_sites:avoid ~sites alts)
            in
            c.restarts <- c.restarts + List.length sr.Concurrent.sr_recoveries;
            let now = Engine.now engine in
            List.iter
              (fun (failed, _successor, _epoch) ->
                match Engine.site_of engine failed with
                | Some s -> Breaker.record_failure (breaker s) ~now
                | None -> ())
              sr.Concurrent.sr_recoveries;
            (match sr.Concurrent.sr_site with
            | Some s -> (
                match sr.Concurrent.sr_report.Concurrent.outcome with
                | Alt_block.Selected _ -> Breaker.record_success (breaker s)
                | Alt_block.Block_failed _ ->
                    Breaker.record_failure (breaker s) ~now)
            | None -> ());
            let violations =
              Span.wrap Span.Invariants ~rid (fun () ->
                  Invariants.check_supervised_report ~scenario:cb.cb_scenario
                    ~policy ~seed:rq.Workload.rq_seed sr)
            in
            audit c violations;
            let rep = sr.Concurrent.sr_report in
            let verdict =
              match rep.Concurrent.outcome with
              | Alt_block.Selected { index; value } ->
                  if sr.Concurrent.sr_recoveries <> [] then
                    Server.Recovered
                      { alt = index; value; epochs = sr.Concurrent.sr_epoch }
                  else Server.Served { alt = index; value }
              | Alt_block.Block_failed reason -> Server.Failed reason
            in
            {
              jr_verdict = verdict;
              jr_elapsed = rep.Concurrent.elapsed;
              jr_wasted = rep.Concurrent.wasted_cpu;
              jr_violations = violations;
            }
          end
          else begin
            let store = Engine.frame_store engine in
            let ev0 = Engine.stats_events_processed engine in
            let sc0 = Engine.stats_mailbox_scanned engine in
            let fr0 = Frame_store.total_allocations store in
            let h = Span.enter Span.Concurrent ~rid in
            let mw0 = Gc.minor_words () in
            let block =
              match
                Concurrent.run_toplevel engine ~policy:eff_policy ~space
                  ~exclusive:eff_exclusive ~deadline alts
              with
              | rep -> Some rep
              | exception Failure _ when Option.is_some sites -> None
            in
            let mw1 = Gc.minor_words () in
            Span.leave h;
            c.blocks <- c.blocks + 1;
            c.events <- c.events + Engine.stats_events_processed engine - ev0;
            c.mailbox_scanned <-
              c.mailbox_scanned + Engine.stats_mailbox_scanned engine - sc0;
            c.frame_allocs <-
              c.frame_allocs + Frame_store.total_allocations store - fr0;
            c.minor_words <- c.minor_words +. (mw1 -. mw0);
            match block with
            | Some rep ->
                c.spawned <- c.spawned + rep.Concurrent.spawned;
                c.sync_messages <- c.sync_messages + rep.Concurrent.sync_messages;
                c.cow_copies <- c.cow_copies + rep.Concurrent.child_cow_copies;
                c.attempted <- c.attempted + rep.Concurrent.attempted;
                (match rep.Concurrent.outcome with
                | Alt_block.Selected _ -> c.selected <- c.selected + 1
                | Alt_block.Block_failed _ -> ());
                let violations =
                  Span.wrap Span.Invariants ~rid (fun () ->
                      Invariants.check_report ~scenario:cb.cb_scenario
                        ~policy:eff_policy ~seed:rq.Workload.rq_seed rep)
                in
                audit c violations;
                let verdict =
                  match rep.Concurrent.outcome with
                  | Alt_block.Selected { index; value } when eff_level > 0 ->
                      Server.Served_degraded
                        { alt = index; value; level = eff_level }
                  | Alt_block.Selected { index; value } ->
                      Server.Served { alt = index; value }
                  | Alt_block.Block_failed reason -> Server.Failed reason
                in
                {
                  jr_verdict = verdict;
                  jr_elapsed = rep.Concurrent.elapsed;
                  jr_wasted = rep.Concurrent.wasted_cpu;
                  jr_violations = violations;
                }
            | None ->
                {
                  jr_verdict = Server.Failed "coordinator lost";
                  jr_elapsed = Engine.now engine -. t_start;
                  jr_wasted = 0.;
                  jr_violations = [];
                }
          end
        end
      in
      (match sanitizer with
      | Some sz ->
          Span.wrap Span.Sanitizer ~rid (fun () -> Sanitizer.next_block sz)
      | None -> ());
      jr)
    cb.cb_jobs
  |> fun results ->
  let sz_viols =
    match sanitizer with
    | None -> []
    | Some sz ->
        Span.wrap Span.Sanitizer ~rid:cb.cb_id (fun () ->
            Sanitizer.detach sz;
            Sanitizer.violations sz ~scenario:cb.cb_scenario
              ~policy:(Concurrent.describe policy)
              ~seed:cb.cb_id)
  in
  let opens =
    List.fold_left
      (fun acc site ->
        match Hashtbl.find_opt breakers site with
        | Some b -> acc + Breaker.opens b
        | None -> acc)
      0 fault_sites
  in
  c.sanitizer_flags <- List.length sz_viols;
  (results, sz_viols, opens, c)

(* ------------------------------------------------------------------ *)
(* Phase 3: the lane timeline, as in Server.run. *)

let timeline (sv : Server.config) requests batches rejected executed ad
    peak_pressure =
  let responses =
    Array.make (Array.length requests)
      {
        Server.rs_id = -1;
        rs_tenant = -1;
        rs_batch = -1;
        rs_verdict = Server.Failed "unreached";
        rs_completion = 0.;
        rs_latency = 0.;
        rs_elapsed = 0.;
        rs_wasted = 0.;
      }
  in
  List.iter
    (fun ((rq : Workload.request), cause) ->
      responses.(rq.Workload.rq_id) <-
        {
          Server.rs_id = rq.Workload.rq_id;
          rs_tenant = rq.Workload.rq_tenant;
          rs_batch = -1;
          rs_verdict = Server.Rejected cause;
          rs_completion = rq.Workload.rq_arrival;
          rs_latency = 0.;
          rs_elapsed = 0.;
          rs_wasted = 0.;
        })
    rejected;
  let lane_free = Array.make sv.Server.sv_lanes 0. in
  let violations = ref [] in
  let served = ref 0 and failed = ref 0 in
  let degraded = ref 0 and recovered = ref 0 in
  let breaker_opens = ref 0 in
  let stats =
    Array.mapi
      (fun b (cb : closed_batch) ->
        let jobs, sz_viols, opens, _ = executed.(b) in
        breaker_opens := !breaker_opens + opens;
        let lane = ref 0 in
        for l = 1 to sv.Server.sv_lanes - 1 do
          if lane_free.(l) < lane_free.(!lane) then lane := l
        done;
        let start = Float.max cb.cb_close lane_free.(!lane) in
        let t = ref (start +. sv.Server.sv_overhead) in
        Array.iteri
          (fun j (rq : Workload.request) ->
            let jr = jobs.(j) in
            t := !t +. (jr.jr_elapsed *. rq.Workload.rq_work);
            (match jr.jr_verdict with
            | Server.Served _ -> incr served
            | Server.Served_degraded _ -> incr degraded
            | Server.Recovered _ -> incr recovered
            | Server.Failed _ -> incr failed
            | Server.Rejected _ -> assert false);
            violations := List.rev_append jr.jr_violations !violations;
            responses.(rq.Workload.rq_id) <-
              {
                Server.rs_id = rq.Workload.rq_id;
                rs_tenant = rq.Workload.rq_tenant;
                rs_batch = cb.cb_id;
                rs_verdict = jr.jr_verdict;
                rs_completion = !t;
                rs_latency = !t -. rq.Workload.rq_arrival;
                rs_elapsed = jr.jr_elapsed;
                rs_wasted = jr.jr_wasted;
              })
          cb.cb_jobs;
        violations := List.rev_append sz_viols !violations;
        lane_free.(!lane) <- !t;
        {
          Server.bs_id = cb.cb_id;
          bs_scenario = cb.cb_scenario;
          bs_policy = cb.cb_policy;
          bs_level = cb.cb_level;
          bs_size = Array.length cb.cb_jobs;
          bs_close = cb.cb_close;
          bs_start = start;
          bs_done = !t;
        })
      batches
  in
  {
    Server.responses;
    batches = stats;
    violations = List.rev !violations;
    served = !served;
    degraded = !degraded;
    recovered = !recovered;
    failed = !failed;
    shed = List.length rejected;
    shed_overload = ad.controller_shed;
    breaker_opens = !breaker_opens;
    ladder_transitions = ad.transitions;
    peak_pressure;
  }

let run (wl : Workload.config) (sv : Server.config) =
  let requests =
    Span.wrap Span.Workload ~rid:(-1) (fun () -> Workload.generate wl)
  in
  let batches, rejected, ad, peak_pressure =
    Span.wrap Span.Plan ~rid:(-1) (fun () -> plan wl sv requests)
  in
  let executed =
    Span.wrap Span.Parallel ~rid:(-1) (fun () ->
        let parent = Span.current () in
        Parallel.map_indexed_shared ~jobs:(max 1 sv.Server.sv_jobs)
          (fun i ->
            Span.under parent (fun () ->
                Span.wrap Span.Batch ~rid:i (fun () ->
                    execute_batch wl sv batches.(i))))
          (Array.length batches))
  in
  let result =
    Span.wrap Span.Timeline ~rid:(-1) (fun () ->
        timeline sv requests batches rejected executed ad peak_pressure)
  in
  let counters = zero () in
  Array.iter (fun (_, _, _, c) -> add_into counters c) executed;
  (result, ad, counters)
