type reject_cause =
  | Quota_exhausted of { tokens : float }
  | Overload of { backlog : float }

type verdict =
  | Served of { alt : int; value : int }
  | Served_degraded of { alt : int; value : int; level : int }
  | Recovered of { alt : int; value : int; epochs : int }
  | Rejected of reject_cause
  | Failed of string

type response = {
  rs_id : int;
  rs_tenant : int;
  rs_batch : int;
  rs_verdict : verdict;
  rs_completion : float;
  rs_latency : float;
  rs_elapsed : float;
  rs_wasted : float;
}

type batch_stat = {
  bs_id : int;
  bs_scenario : string;
  bs_policy : int;
  bs_level : int;
  bs_size : int;
  bs_close : float;
  bs_start : float;
  bs_done : float;
}

type config = {
  sv_lanes : int;
  sv_max_batch : int;
  sv_window : float;
  sv_quota_rate : float;
  sv_quota_burst : int;
  sv_scenario_rate : float;
  sv_scenario_burst : int;
  sv_global_rate : float;
  sv_global_burst : int;
  sv_ladder : Controller.config;
  sv_deadline : float;
  sv_faults : int option;
  sv_retry_budget : int;
  sv_breaker : Breaker.config;
  sv_overhead : float;
  sv_sanitize : bool;
  sv_jobs : int;
  sv_shards : int;
}

let default =
  {
    sv_lanes = 64;
    sv_max_batch = 8;
    sv_window = 0.05;
    sv_quota_rate = 50.;
    sv_quota_burst = 10;
    sv_scenario_rate = 0.;
    sv_scenario_burst = 1;
    sv_global_rate = 0.;
    sv_global_burst = 1;
    sv_ladder = Controller.default ~lanes:64;
    sv_deadline = infinity;
    sv_faults = None;
    sv_retry_budget = 2;
    sv_breaker = Breaker.default;
    sv_overhead = 0.0005;
    sv_sanitize = false;
    sv_jobs = 1;
    sv_shards = 1;
  }

type result = {
  responses : response array;
  batches : batch_stat array;
  violations : Report.violation list;
  served : int;
  degraded : int;
  recovered : int;
  failed : int;
  shed : int;
  shed_overload : int;
  breaker_opens : int;
  ladder_transitions : int;
  peak_pressure : float;
}

(* ------------------------------------------------------------------ *)
(* Phase 1: admission and batch formation.

   A single sequential pass over the arrival stream, admitting each
   request as {!Workload.iter} draws it. Everything here is plain
   arithmetic on the request stream — no engine, no parallelism — so the
   admission decisions, ladder rungs and batch boundaries are trivially
   a function of the two configs. A refused request is answered on the
   spot and is garbage once answered. Batches are keyed by (scenario,
   policy, ladder rung): jobs in one batch share an engine and an
   effective policy, so they must agree on everything that shapes
   both. *)

type open_batch = {
  ob_slot : int;  (* (class, rung) key: index into the plan's [slots] *)
  ob_scenario : string;
  ob_policy : int;
  ob_level : int;
  ob_deadline : float;
  mutable ob_jobs : Workload.request list;  (* newest first *)
  mutable ob_count : int;
  mutable ob_full : bool;  (* closed on reaching [sv_max_batch] *)
}

type closed_batch = {
  cb_id : int;
  cb_scenario : string;
  cb_policy : int;
  cb_level : int;
  cb_close : float;
  cb_jobs : Workload.request array;  (* arrival order *)
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

type admission_stats = {
  ad_shed : int;
  ad_shed_overload : int;
  ad_transitions : int;
  ad_peak_pressure : float;
}

(* Admitted rungs: 0 full service, 1 latch elision, 2 sequential. *)
let rungs = 3

(* The fewest tokens any of [buckets] holds at [now]: the binding
   constraint an honest refusal names. *)
let rec min_tokens acc ~now = function
  | [] -> acc
  | q :: rest -> min_tokens (Float.min acc (Quota.tokens q ~now)) ~now rest

(* The first position of [name] in [names], where [first.(i)] is the
   first position of [names.(i)]. {!Workload.iter} hands out the very
   strings of [wl_scenarios], so the physical pass finds every arrival's
   scenario without comparing a byte. *)
let rec find_same names name i =
  if i = Array.length names then -1
  else if Array.unsafe_get names i == name then i
  else find_same names name (i + 1)

let rec find_equal names name i =
  if String.equal names.(i) name then i else find_equal names name (i + 1)

let scenario_index names first name =
  let i = find_same names name 0 in
  if i >= 0 then first.(i) else find_equal names name 0

(* Plan the whole stream: refusals go straight into [responses] (indexed
   by [rq_id]); admitted requests come back in the closed batches. *)
let plan (wl : Workload.config) (sv : config) (responses : response array) =
  (* Classes are (scenario, policy), the scenario by its first position
     in [wl_scenarios]. Their controller labels are built here, once. *)
  let names = Array.of_list wl.Workload.wl_scenarios in
  let first = Array.map (fun name -> find_equal names name 0) names in
  let policies = wl.Workload.wl_policies in
  let labels =
    Array.init (Array.length names * policies) (fun c ->
        names.(c / policies) ^ "/" ^ string_of_int (c mod policies))
  in
  let tenant_quotas =
    Array.init wl.Workload.wl_tenants (fun _ ->
        Quota.create ~rate:sv.sv_quota_rate ~burst:sv.sv_quota_burst)
  in
  (* The optional wider quota classes: per-scenario and global buckets,
     in the order a request is checked against them after its tenant's.
     A request must pass every applicable class; the conforming/charge
     split inside [Quota.admit_all] guarantees a shed consumes from
     none. *)
  let global =
    if sv.sv_global_rate <= 0. then []
    else [ Quota.create ~rate:sv.sv_global_rate ~burst:sv.sv_global_burst ]
  in
  let wider =
    Array.map
      (fun _ ->
        if sv.sv_scenario_rate <= 0. then global
        else
          Quota.create ~rate:sv.sv_scenario_rate ~burst:sv.sv_scenario_burst
          :: global)
      names
  in
  (* Every (tenant, scenario) pair's bucket list, built once, so an
     arrival conses nothing to be checked. *)
  let n_names = Array.length names in
  let buckets_of =
    Array.init (wl.Workload.wl_tenants * n_names) (fun i ->
        tenant_quotas.(i / n_names) :: wider.(i mod n_names))
  in
  let ladder = Controller.create sv.sv_ladder in
  (* Open batches in open order: [front], then [back] newest first. A
     batch's deadline is its opening arrival plus [sv_window], and
     arrivals never decrease, so this is also (deadline, open order):
     the batches due at any arrival are a prefix. A batch that filled up
     stays queued, marked [ob_full], until it reaches the head. Immutable
     lists rather than a [Queue.t], whose old tail cell, once linked to
     a young one, keeps every later cell alive until the next minor
     collection, dequeued or not. [slots] maps a (class, rung) key to
     its open batch, if any. *)
  let front = ref [] and back = ref [] in
  let slots : open_batch option array =
    Array.make (Array.length labels * rungs) None
  in
  let closed = ref [] in
  let n_closed = ref 0 in
  let shed = ref 0 in
  let emit_close ~at ob =
    closed := close_batch ~id:!n_closed ~at ob :: !closed;
    incr n_closed
  in
  (* Expire every open batch whose window ended at or before [now], in
     (deadline, open order): between two arrivals the window timers are
     the only events, and they fire in time order. *)
  let rec expire now =
    match !front with
    | [] -> (
        match !back with
        | [] -> ()
        | newest_first ->
            front := List.rev newest_first;
            back := [];
            expire now)
    | ob :: rest ->
        if ob.ob_full then begin
          front := rest;
          expire now
        end
        else if ob.ob_deadline <= now then begin
          front := rest;
          slots.(ob.ob_slot) <- None;
          emit_close ~at:ob.ob_deadline ob;
          expire now
        end
  in
  let refuse (rq : Workload.request) cause =
    responses.(rq.Workload.rq_id) <-
      {
        rs_id = rq.Workload.rq_id;
        rs_tenant = rq.Workload.rq_tenant;
        rs_batch = -1;
        rs_verdict = Rejected cause;
        rs_completion = rq.Workload.rq_arrival;
        rs_latency = 0.;
        rs_elapsed = 0.;
        rs_wasted = 0.;
      };
    incr shed
  in
  Workload.iter wl (fun (rq : Workload.request) ->
      let now = rq.Workload.rq_arrival in
      expire now;
      let scenario = scenario_index names first rq.Workload.rq_scenario in
      let buckets = buckets_of.((rq.Workload.rq_tenant * n_names) + scenario) in
      if not (Quota.admit_all buckets ~now) then
        refuse rq (Quota_exhausted { tokens = min_tokens infinity ~now buckets })
      else begin
        let cls = (scenario * policies) + rq.Workload.rq_policy in
        match
          Controller.decide ladder ~cls:labels.(cls) ~now
            ~work:rq.Workload.rq_work
        with
        | Controller.Shed { backlog } -> refuse rq (Overload { backlog })
        | Controller.Admit { level } ->
            let slot = (cls * rungs) + level in
            let ob =
              match slots.(slot) with
              | Some ob -> ob
              | None ->
                  let ob =
                    {
                      ob_slot = slot;
                      ob_scenario = rq.Workload.rq_scenario;
                      ob_policy = rq.Workload.rq_policy;
                      ob_level = level;
                      ob_deadline = now +. sv.sv_window;
                      ob_jobs = [];
                      ob_count = 0;
                      ob_full = false;
                    }
                  in
                  back := ob :: !back;
                  slots.(slot) <- Some ob;
                  ob
            in
            ob.ob_jobs <- rq :: ob.ob_jobs;
            ob.ob_count <- ob.ob_count + 1;
            if ob.ob_count >= sv.sv_max_batch then begin
              ob.ob_full <- true;
              slots.(slot) <- None;
              emit_close ~at:now ob
            end
      end);
  expire infinity;
  let stats =
    {
      ad_shed = !shed;
      ad_shed_overload = Controller.overload_sheds ladder;
      ad_transitions = Controller.transitions ladder;
      ad_peak_pressure = Controller.peak_pressure ladder;
    }
  in
  (Array.of_list (List.rev !closed), stats)

(* ------------------------------------------------------------------ *)
(* Phase 2: batch execution.

   Each domain keeps one engine, and a batch runs on its domain's engine
   after {!Engine.reset} with the batch's seed, jobs back to back. The
   seed is derived from (workload seed, batch id) only, and a reset
   engine is exactly a fresh one with that seed, tables' capacity aside.
   Fault plan and circuit breakers are scoped to the batch, and a second
   reset as the batch ends drops them with its processes, so an idle
   domain's engine holds nothing of its last batch. The domain's site
   topology and sanitizer are re-armed for each faulted or sanitized
   batch and cleared or detached at its end, which drops their state. So executing batches on N domains in any order gives the
   same per-batch results as one domain in dispatch order. The structures batches on a domain
   share are that engine's tables and the domain's free-frame pool
   ({!Frame_store}): each job releases the address spaces it created,
   and their frames serve the next job and the next batch on that
   domain. A pooled frame is zero-filled and re-identified by the store
   that takes it, and a reset clears every table entry a run used, so
   what either holds, and which batch filled it, cannot be observed. Trace
   recording stays off (these runs are throughput, not post-mortem); the
   sanitizer, when requested, watches through its trace subscription,
   called even with recording off, and its frame-store observer, which
   hears every write. *)

type job_result = {
  jr_verdict : verdict;
  jr_elapsed : float;
  jr_wasted : float;
  jr_violations : Report.violation list;
}

let resolve_scenario name =
  match Invariants.find_scenario name with
  | Some sc -> sc
  | None -> invalid_arg (Printf.sprintf "Server.run: unknown scenario %S" name)

let policy_table = Array.of_list Invariants.policy_matrix

let resolve_policy idx =
  if idx >= 0 && idx < Array.length policy_table then policy_table.(idx)
  else invalid_arg (Printf.sprintf "Server.run: policy index %d" idx)

(* The serving layer's static exclusivity registry: scenarios whose
   alternatives are provably mutually exclusive by construction, the
   proof obligation `?exclusive` demands. "guarded" builds one closed
   guard, one alternative that always raises, and exactly one that can
   succeed; "all-fail" has no succeeding alternative at all. "counters"
   and "teletype" race genuinely independent successes and must keep
   their distributed latch. (The same judgement Lint's [Independent]
   verdict encodes for Prolog goals, hand-established here because these
   scenarios are OCaml closures.) *)
let proven_exclusive = function "guarded" | "all-fail" -> true | _ -> false

(* Five named failure domains per faulted batch engine, like the
   altcheck sites campaigns: voters spread across all five, coordinators
   placed per epoch. *)
let fault_sites = [ "s0"; "s1"; "s2"; "s3"; "s4" ]
let fault_site_names = Array.of_list fault_sites

let rec fault_site_index name i =
  if i = Array.length fault_site_names then
    invalid_arg ("Server: unknown fault site " ^ name)
  else if String.equal fault_site_names.(i) name then i
  else fault_site_index name (i + 1)

(* The per-batch chaos campaign, derived from the batch id alone (the
   plan seed mixes in the fault seed): a third of the batches lose the
   first coordinator site mid-request, a third suffer a healed
   partition that isolates it, a third run clean. 0.06-0.08 s is the
   consensus window of the first job (children spawn ~0.07 s in,
   consensus traffic runs ~0.08-0.10 s), so the injection lands
   mid-decision; later jobs in the batch inherit the crashed topology,
   which is what exercises placement and the circuit breakers. *)
let crash_rules = [ Faultplan.crash_site ~at:0.06 ~jitter:0.02 "s0" ]

let partition_rules =
  [
    Faultplan.partition_sites ~at:0.06 ~jitter:0.02 ~heal_after:0.08 [ "s0" ]
      [ "s1"; "s2"; "s3"; "s4" ];
  ]

let fault_rules cb_id =
  match cb_id mod 3 with 0 -> crash_rules | 1 -> partition_rules | _ -> []

(* The fault sites whose breaker refuses a placement at [now], in site
   order, asking each breaker once: [], and nothing built, while every
   breaker allows. A site with no breaker yet has never failed, and a
   fresh breaker allows without changing state, so it is not made. *)
let rec refused_sites breakers ~now i =
  if i = Array.length breakers then []
  else
    let refuses =
      match breakers.(i) with
      | Some b -> not (Breaker.allow b ~now)
      | None -> false
    in
    let rest = refused_sites breakers ~now (i + 1) in
    if refuses then fault_site_names.(i) :: rest else rest

(* Every incarnation that died charges its site's breaker. *)
let rec charge_recoveries engine breaker ~now = function
  | [] -> ()
  | (failed, _successor, _epoch) :: rest ->
      (match Engine.site_of engine failed with
      | Some s -> Breaker.record_failure (breaker s) ~now
      | None -> ());
      charge_recoveries engine breaker ~now rest

(* Ladder rung 2: first-fit sequential execution in a fresh root
   process, no speculation. The report is fabricated — honestly: it
   claims no winner, no children and no sync traffic, and flags itself
   degraded, which is exactly the shape [Invariants.check_report]
   demands of a sequential fallback. *)
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

(* The executing domain's batch engine, made on the domain's first batch. *)
let engine_key =
  Domain.DLS.new_key (fun () ->
      Engine.create ~model:Cost_model.att_3b2 ~trace:false ())

(* The domain's sanitizer on that engine, made on its first sanitized
   batch and re-armed for each: detached, it holds nothing of the last
   batch but the tables' capacity. *)
let sanitizer_key =
  Domain.DLS.new_key (fun () -> Sanitizer.create (Domain.DLS.get engine_key))

(* The domain's fault topology on that engine, made on its first faulted
   batch and re-armed for each. *)
let sites_key =
  Domain.DLS.new_key (fun () ->
      Sites.create (Domain.DLS.get engine_key) ~names:fault_sites)

let execute_batch (wl : Workload.config) (sv : config) (cb : closed_batch) =
  let engine = Domain.DLS.get engine_key in
  Engine.reset engine ~seed:((wl.Workload.wl_seed * 1_000_003) + cb.cb_id);
  let sites =
    match sv.sv_faults with
    | None -> None
    | Some fseed ->
        let sites = Domain.DLS.get sites_key in
        Sites.reset sites;
        let plan =
          Faultplan.make
            ~seed:((fseed * 1_000_003) + cb.cb_id)
            (fault_rules cb.cb_id)
        in
        Faultplan.install ~sites plan engine;
        Some sites
  in
  (* One breaker per fault site, made on first use; only a faulted
     batch has sites. *)
  let breakers =
    Array.make (if Option.is_some sites then Array.length fault_site_names else 0)
      None
  in
  let breaker site =
    let i = fault_site_index site 0 in
    match breakers.(i) with
    | Some b -> b
    | None ->
        let b = Breaker.create sv.sv_breaker in
        breakers.(i) <- Some b;
        b
  in
  let sanitizer =
    if sv.sv_sanitize then begin
      let sz = Domain.DLS.get sanitizer_key in
      Sanitizer.arm sz;
      Some sz
    end
    else None
  in
  let scenario = resolve_scenario cb.cb_scenario in
  let policy = resolve_policy cb.cb_policy in
  let consensus_policy =
    match policy.Concurrent.sync with
    | Concurrent.Consensus _ -> true
    | Concurrent.Local -> false
  in
  (* The batch's rung, resolved to an execution mode once. A rung-1
     class keeps its at-most-once story: scenarios in the static
     exclusivity registry elide consensus through `?exclusive` (same
     winner, zero sync messages); everything else downgrades to the
     local latch. A rung-1 request that already asked for the local
     latch gets exactly what it asked for — that is full service, not a
     degradation, and is labelled honestly as such. *)
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
      let space =
        Address_space.create (Engine.frame_store engine) (Engine.model engine)
      in
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
      | Some sz, Some src -> Sanitizer.observe_source sz src
      | _ -> ());
      let alts =
        scenario.Invariants.alts engine ~seed:rq.Workload.rq_seed ~source
      in
      let t_start = Engine.now engine in
      let deadline = t_start +. sv.sv_deadline in
      (* A supervised restart leaves the job a second space: the final
         incarnation's restored checkpoint. *)
      let restored = ref None in
      let jr =
        if eff_level = 2 then begin
          let outcome, elapsed = run_sequential engine ~space alts in
          match outcome with
          | None ->
              (* The root died mid-fallback (site fault): no outcome,
                 no invented one. *)
              {
                jr_verdict = Failed "coordinator lost";
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
                Invariants.check_report ~scenario:cb.cb_scenario
                  ~policy:eff_policy ~seed:rq.Workload.rq_seed rep
              in
              let verdict =
                match outcome with
                | Alt_block.Selected { index; value } ->
                    Served_degraded { alt = index; value; level = 2 }
                | Alt_block.Block_failed reason -> Failed reason
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
            let avoid = refused_sites breakers ~now:t_start 0 in
            let sr =
              Concurrent.run_supervised engine ~policy ~space
                ~max_restarts:sv.sv_retry_budget ~deadline ~avoid_sites:avoid
                ~sites alts
            in
            restored := sr.Concurrent.sr_space;
            let now = Engine.now engine in
            (* Every incarnation that died charges its site's breaker;
               the final incarnation settles its own site by outcome. *)
            charge_recoveries engine breaker ~now sr.Concurrent.sr_recoveries;
            (match sr.Concurrent.sr_site with
            | Some s -> (
                match sr.Concurrent.sr_report.Concurrent.outcome with
                | Alt_block.Selected _ -> Breaker.record_success (breaker s)
                | Alt_block.Block_failed _ ->
                    Breaker.record_failure (breaker s) ~now)
            | None -> ());
            let violations =
              Invariants.check_supervised_report ~scenario:cb.cb_scenario
                ~policy ~seed:rq.Workload.rq_seed sr
            in
            let rep = sr.Concurrent.sr_report in
            let verdict =
              match rep.Concurrent.outcome with
              | Alt_block.Selected { index; value } ->
                  if sr.Concurrent.sr_recoveries <> [] then
                    Recovered
                      { alt = index; value; epochs = sr.Concurrent.sr_epoch }
                  else Served { alt = index; value }
              | Alt_block.Block_failed reason -> Failed reason
            in
            {
              jr_verdict = verdict;
              jr_elapsed = rep.Concurrent.elapsed;
              jr_wasted = rep.Concurrent.wasted_cpu;
              jr_violations = violations;
            }
          end
          else begin
            match
              Concurrent.run_toplevel engine ~policy:eff_policy ~space
                ~exclusive:eff_exclusive ~deadline alts
            with
            | rep ->
                let violations =
                  Invariants.check_report ~scenario:cb.cb_scenario
                    ~policy:eff_policy ~seed:rq.Workload.rq_seed rep
                in
                let verdict =
                  match rep.Concurrent.outcome with
                  | Alt_block.Selected { index; value } when eff_level > 0 ->
                      Served_degraded { alt = index; value; level = eff_level }
                  | Alt_block.Selected { index; value } ->
                      Served { alt = index; value }
                  | Alt_block.Block_failed reason -> Failed reason
                in
                {
                  jr_verdict = verdict;
                  jr_elapsed = rep.Concurrent.elapsed;
                  jr_wasted = rep.Concurrent.wasted_cpu;
                  jr_violations = violations;
                }
            | exception Failure _ when Option.is_some sites ->
                (* The unsupervised root was killed by the fault campaign
                   (rung >= 1 trades the watchdog away, and local-latch
                   blocks never had one): an honest loss, never a made-up
                   answer. *)
                {
                  jr_verdict = Failed "coordinator lost";
                  jr_elapsed = Engine.now engine -. t_start;
                  jr_wasted = 0.;
                  jr_violations = [];
                }
          end
        end
      in
      (* The engine hosts the next job's block too: reset the sanitizer's
         at-most-once scope so job n+1's win is not a "duplicate" of job
         n's. *)
      (match sanitizer with Some sz -> Sanitizer.next_block sz | None -> ());
      (* The job is audited and nothing reads its spaces again: return
         their frames to the domain's pool (release is idempotent, so a
         restored space that is the request space itself is fine). *)
      Address_space.release space;
      Option.iter Address_space.release !restored;
      jr)
    cb.cb_jobs
  |> fun results ->
  let sz_viols =
    match sanitizer with
    | None -> []
    | Some sz ->
        Sanitizer.detach sz;
        if Sanitizer.flag_count sz = 0 then []
        else
          Sanitizer.violations sz ~scenario:cb.cb_scenario
            ~policy:(Concurrent.describe policy)
            ~seed:cb.cb_id
  in
  (* Frame conservation: every job released its spaces and every process
     that forked one released what it still owned, however it left, so
     no frame of the batch is still referenced. One that is would never
     reach the domain's pool. *)
  let live = Frame_store.live_frames (Engine.frame_store engine) in
  let sz_viols =
    if live = 0 then sz_viols
    else
      Report.violation Report.Accounting ~scenario:cb.cb_scenario
        ~policy:(Concurrent.describe policy) ~seed:cb.cb_id
        (Printf.sprintf "batch %d ends with %d frames still referenced"
           cb.cb_id live)
      :: sz_viols
  in
  let opens =
    Array.fold_left
      (fun acc b -> match b with Some b -> acc + Breaker.opens b | None -> acc)
      0 breakers
  in
  (* Nothing of the batch is read again: reset the domain's engine now,
     and its topology with it, so that until its next batch neither holds
     a process, continuation, site member or fault hook of this one. *)
  Option.iter Sites.reset sites;
  Engine.reset engine ~seed:0;
  (results, sz_viols, opens)

(* ------------------------------------------------------------------ *)
(* Phase 3: the lane timeline.

   Virtual executors. Batches are dispatched in id (= close) order to
   the earliest-free lane, lowest index winning ties; a batch's service
   time is the dispatch overhead plus each job's own virtual elapsed
   time scaled by its heavy-tail work multiplier, and jobs complete in
   order at the running prefix sum. All plain folds — determinism needs
   no argument here. *)

let run (wl : Workload.config) (sv : config) =
  (* Written so that a NaN float fails every check. *)
  if sv.sv_lanes < 1 then invalid_arg "Server.run: lanes must be >= 1";
  if sv.sv_max_batch < 1 then invalid_arg "Server.run: max_batch must be >= 1";
  if not (sv.sv_window >= 0.) then invalid_arg "Server.run: window must be >= 0";
  if not (sv.sv_overhead >= 0.) then
    invalid_arg "Server.run: overhead must be >= 0";
  if not (sv.sv_deadline > 0.) then invalid_arg "Server.run: deadline must be > 0";
  if sv.sv_retry_budget < 0 then
    invalid_arg "Server.run: negative retry budget";
  Workload.validate wl;
  List.iter
    (fun name -> ignore (resolve_scenario name))
    wl.Workload.wl_scenarios;
  if wl.Workload.wl_policies > List.length Invariants.policy_matrix then
    invalid_arg "Server.run: wl_policies exceeds the policy matrix";
  let responses =
    Array.make wl.Workload.wl_requests
      {
        rs_id = -1;
        rs_tenant = -1;
        rs_batch = -1;
        rs_verdict = Failed "unreached";
        rs_completion = 0.;
        rs_latency = 0.;
        rs_elapsed = 0.;
        rs_wasted = 0.;
      }
  in
  let batches, ad = plan wl sv responses in
  let executed =
    Parallel.map_indexed_shared ~jobs:(max 1 sv.sv_jobs)
      (fun i -> execute_batch wl sv batches.(i))
      (Array.length batches)
  in
  let lane_free = Array.make sv.sv_lanes 0. in
  let violations = ref [] in
  let served = ref 0 and failed = ref 0 in
  let degraded = ref 0 and recovered = ref 0 in
  let breaker_opens = ref 0 in
  let stats =
    Array.mapi
      (fun b (cb : closed_batch) ->
        let jobs, sz_viols, opens = executed.(b) in
        breaker_opens := !breaker_opens + opens;
        let lane = ref 0 in
        for l = 1 to sv.sv_lanes - 1 do
          if lane_free.(l) < lane_free.(!lane) then lane := l
        done;
        let start = Float.max cb.cb_close lane_free.(!lane) in
        let t = ref (start +. sv.sv_overhead) in
        Array.iteri
          (fun j (rq : Workload.request) ->
            let jr = jobs.(j) in
            t := !t +. (jr.jr_elapsed *. rq.Workload.rq_work);
            (match jr.jr_verdict with
            | Served _ -> incr served
            | Served_degraded _ -> incr degraded
            | Recovered _ -> incr recovered
            | Failed _ -> incr failed
            | Rejected _ -> assert false (* rejections never reach a batch *));
            violations := List.rev_append jr.jr_violations !violations;
            responses.(rq.Workload.rq_id) <-
              {
                rs_id = rq.Workload.rq_id;
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
          bs_id = cb.cb_id;
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
    responses;
    batches = stats;
    violations = List.rev !violations;
    served = !served;
    degraded = !degraded;
    recovered = !recovered;
    failed = !failed;
    shed = ad.ad_shed;
    shed_overload = ad.ad_shed_overload;
    breaker_opens = !breaker_opens;
    ladder_transitions = ad.ad_transitions;
    peak_pressure = ad.ad_peak_pressure;
  }

(* ------------------------------------------------------------------ *)

(* [digest] is FNV-1a over each response rendered as
   ["id|tenant|batch|verdict|completion|latency|elapsed|wasted"], ints in
   decimal and floats as ["%.17g"]; the verdict renders as
   ["served:alt:value"], ["degraded:L<level>:alt:value"],
   ["recovered:e<epochs>:alt:value"], ["failed:<reason>"],
   ["rejected:<tokens>"] or ["rejected:overload:<backlog>"]. The pieces
   are mixed one at a time, so no line is ever built. *)

external format_float : string -> float -> string = "caml_format_float"

let fnv_prime = 0x100000001b3L

let mix_char h c = Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) fnv_prime

let mix_string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := mix_char !h (String.unsafe_get s i)
  done;
  !h

let mix_int h n = mix_string h (string_of_int n)
let mix_float h x = mix_string h (format_float "%.17g" x)

(* [prefix] and the ints, the ints separated by ':'. *)
let mix_ints2 h prefix a b = mix_int (mix_char (mix_int (mix_string h prefix) a) ':') b

let mix_ints3 h prefix a b c = mix_int (mix_char (mix_ints2 h prefix a b) ':') c

let mix_verdict h = function
  | Served { alt; value } -> mix_ints2 h "served:" alt value
  | Served_degraded { alt; value; level } ->
      mix_ints3 h "degraded:L" level alt value
  | Recovered { alt; value; epochs } -> mix_ints3 h "recovered:e" epochs alt value
  | Failed reason -> mix_string (mix_string h "failed:") reason
  | Rejected (Quota_exhausted { tokens }) ->
      mix_float (mix_string h "rejected:") tokens
  | Rejected (Overload { backlog }) ->
      mix_float (mix_string h "rejected:overload:") backlog

let mix_response h rs =
  let h = mix_char (mix_int h rs.rs_id) '|' in
  let h = mix_char (mix_int h rs.rs_tenant) '|' in
  let h = mix_char (mix_int h rs.rs_batch) '|' in
  let h = mix_char (mix_verdict h rs.rs_verdict) '|' in
  let h = mix_char (mix_float h rs.rs_completion) '|' in
  let h = mix_char (mix_float h rs.rs_latency) '|' in
  let h = mix_char (mix_float h rs.rs_elapsed) '|' in
  mix_float h rs.rs_wasted

let digest r =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to Array.length r.responses - 1 do
    h := mix_response !h (Array.unsafe_get r.responses i)
  done;
  !h
