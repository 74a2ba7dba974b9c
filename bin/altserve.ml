(* altserve: drive the request-driven serving layer with a deterministic
   open-loop load and emit BENCH_serve.json.

     altserve --requests 2000 --rate 200   a seeded open-loop run
     altserve --sanitize                   attach the online sanitizer to
                                           every batch engine
     altserve --verify-determinism         also replay the run and compare
                                           digests (same seed => identical
                                           responses; jobs-1 = jobs-N)
     altserve --validate -o BENCH.json     re-read the record and fail
                                           unless every schema field is
                                           present (the @serve-smoke alias)
     altserve --ladder --rate 800          enable the degradation ladder
     altserve --faults 7                   run every batch under a seeded
                                           fault campaign (supervised
                                           recovery, circuit breakers)
     altserve --chaos --seed 7 -j 2        the chaos-serve campaign:
                                           faults x overload, audited,
                                           replayed, jobs-diffed
     altserve --degrade-bench              ladder vs shed-only goodput
                                           under ramped overload; writes
                                           BENCH_degrade.json

   Exit codes: 0 clean; 1 invariant violations on served requests;
   2 schema validation failed; 3 determinism verification failed;
   4 wall-clock throughput below floor with >= 2 cores; 23/24 (from the
   registry: `altcheck codes`) chaos campaign / degrade benchmark
   failure. *)

open Cmdliner

let wl_term =
  let seed =
    Arg.(
      value & opt int Workload.default.Workload.wl_seed
      & info [ "seed" ] ~docv:"N" ~doc:"Workload seed.")
  in
  let requests =
    Arg.(
      value & opt int Workload.default.Workload.wl_requests
      & info [ "requests" ] ~docv:"N" ~doc:"Arrivals to generate.")
  in
  let rate =
    Arg.(
      value & opt float Workload.default.Workload.wl_rate
      & info [ "rate" ] ~docv:"R"
          ~doc:"Mean arrivals per virtual second (Poisson).")
  in
  let tenants =
    Arg.(
      value & opt int Workload.default.Workload.wl_tenants
      & info [ "tenants" ] ~docv:"N" ~doc:"Tenant population (Zipf 1.1).")
  in
  let mk seed requests rate tenants =
    {
      Workload.default with
      Workload.wl_seed = seed;
      wl_requests = requests;
      wl_rate = rate;
      wl_tenants = tenants;
    }
  in
  Term.(const mk $ seed $ requests $ rate $ tenants)

let sv_term =
  let lanes =
    Arg.(
      value & opt int Server.default.Server.sv_lanes
      & info [ "lanes" ] ~docv:"N" ~doc:"Service lanes (virtual executors).")
  in
  let max_batch =
    Arg.(
      value & opt int Server.default.Server.sv_max_batch
      & info [ "max-batch" ] ~docv:"N"
          ~doc:"Batch occupancy that forces an immediate close.")
  in
  let window =
    Arg.(
      value & opt float Server.default.Server.sv_window
      & info [ "window" ] ~docv:"S"
          ~doc:"Max virtual seconds a batch waits open for company.")
  in
  let quota_rate =
    Arg.(
      value & opt float Server.default.Server.sv_quota_rate
      & info [ "quota-rate" ] ~docv:"R"
          ~doc:"Per-tenant token refill rate (tokens per virtual second).")
  in
  let quota_burst =
    Arg.(
      value & opt int Server.default.Server.sv_quota_burst
      & info [ "quota-burst" ] ~docv:"N" ~doc:"Per-tenant bucket depth.")
  in
  let scenario_quota =
    Arg.(
      value & opt float Server.default.Server.sv_scenario_rate
      & info [ "scenario-quota-rate" ] ~docv:"R"
          ~doc:
            "Per-scenario quota class shared by all tenants, tokens per \
             virtual second (0 disables, the default). A request must \
             conform to every applicable class before any is charged.")
  in
  let scenario_burst =
    Arg.(
      value & opt int Server.default.Server.sv_scenario_burst
      & info [ "scenario-quota-burst" ] ~docv:"N"
          ~doc:"Per-scenario bucket depth.")
  in
  let global_quota =
    Arg.(
      value & opt float Server.default.Server.sv_global_rate
      & info [ "global-quota-rate" ] ~docv:"R"
          ~doc:
            "Whole-server quota class, tokens per virtual second (0 \
             disables, the default).")
  in
  let global_burst =
    Arg.(
      value & opt int Server.default.Server.sv_global_burst
      & info [ "global-quota-burst" ] ~docv:"N" ~doc:"Global bucket depth.")
  in
  let ladder =
    Arg.(
      value & flag
      & info [ "ladder" ]
          ~doc:
            "Enable the deterministic degradation ladder: under \
             virtual-time overload pressure each request class walks \
             consensus -> latch elision -> sequential fallback -> shed, \
             with hysteresis. Downgrades are reported honestly in the \
             verdicts.")
  in
  let shed_only =
    Arg.(
      value & flag
      & info [ "shed-only" ]
          ~doc:
            "With $(b,--ladder): the baseline controller — same meter and \
             thresholds, but every rung below full service sheds instead \
             of degrading.")
  in
  let deadline =
    Arg.(
      value & opt float Server.default.Server.sv_deadline
      & info [ "deadline" ] ~docv:"S"
          ~doc:
            "Per-request virtual-time budget measured from block entry \
             (default: none). Bounds the rendezvous wait, consensus retry \
             backoff and supervised relaunches alike.")
  in
  let faults =
    Arg.(
      value & opt (some int) None
      & info [ "faults" ] ~docv:"SEED"
          ~doc:
            "Run every batch under a seeded fault campaign: coordinator \
             crashes and healed partitions injected mid-consensus, \
             supervised recovery behind epoch fences, per-site circuit \
             breakers.")
  in
  let retry_budget =
    Arg.(
      value & opt int Server.default.Server.sv_retry_budget
      & info [ "retry-budget" ] ~docv:"N"
          ~doc:"Max supervised relaunches per request (with --faults).")
  in
  let sanitize =
    Arg.(
      value & flag
      & info [ "sanitize" ]
          ~doc:
            "Attach the online happens-before sanitizer to every batch \
             engine — the production auditor. Its flags join the \
             violation count.")
  in
  let jobs =
    Arg.(
      value
      & opt int (Parallel.default_jobs ())
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Worker domains executing batches (default: one per core). \
             Responses are identical for every value of $(docv).")
  in
  let mk lanes max_batch window quota_rate quota_burst scenario_quota
      scenario_burst global_quota global_burst ladder shed_only deadline
      faults retry_budget sanitize jobs =
    {
      Server.default with
      Server.sv_lanes = lanes;
      sv_max_batch = max_batch;
      sv_window = window;
      sv_quota_rate = quota_rate;
      sv_quota_burst = quota_burst;
      sv_scenario_rate = scenario_quota;
      sv_scenario_burst = scenario_burst;
      sv_global_rate = global_quota;
      sv_global_burst = global_burst;
      sv_ladder =
        {
          (Controller.default ~lanes) with
          Controller.dc_enabled = ladder || shed_only;
          dc_shed_only = shed_only;
        };
      sv_deadline = deadline;
      sv_faults = faults;
      sv_retry_budget = retry_budget;
      sv_sanitize = sanitize;
      sv_jobs = jobs;
    }
  in
  Term.(
    const mk $ lanes $ max_batch $ window $ quota_rate $ quota_burst
    $ scenario_quota $ scenario_burst $ global_quota $ global_burst $ ladder
    $ shed_only $ deadline $ faults $ retry_budget $ sanitize $ jobs)

(* The wall-clock throughput floor: far below what even one core
   sustains on the default smoke load, so only a real regression (or a
   starved single-core container, which is excused) trips it. *)
let wall_rps_floor = 50.

let run_chaos wl (sv : Server.config) =
  let o =
    Chaosserve.chaos ~requests:wl.Workload.wl_requests
      ~rate:wl.Workload.wl_rate ~jobs:sv.Server.sv_jobs
      ~seed:wl.Workload.wl_seed ()
  in
  Printf.printf
    "chaos: %d requests: %d served, %d degraded, %d recovered, %d failed, \
     %d shed; %d breaker opens; digest %016Lx\n"
    o.Chaosserve.ch_requests o.Chaosserve.ch_served o.Chaosserve.ch_degraded
    o.Chaosserve.ch_recovered o.Chaosserve.ch_failed o.Chaosserve.ch_shed
    o.Chaosserve.ch_breaker_opens o.Chaosserve.ch_digest;
  List.iter
    (fun viol -> Format.eprintf "%a@." Report.pp_violation viol)
    o.Chaosserve.ch_violations;
  if not o.Chaosserve.ch_replay_identical then
    Printf.eprintf "chaos: replay with the same seeds diverged\n";
  if not o.Chaosserve.ch_jobs_identical then
    Printf.eprintf "chaos: jobs-1 and jobs-%d diverged\n" sv.Server.sv_jobs;
  if Chaosserve.chaos_ok o then begin
    Printf.printf
      "chaos ok: 0 violations, replay identical, jobs-1 = jobs-%d\n"
      sv.Server.sv_jobs;
    exit 0
  end
  else exit (Report.code_of_label "serve-chaos")

let run_degrade wl out =
  let d = Chaosserve.degrade ~seed:wl.Workload.wl_seed () in
  List.iter
    (fun (s : Chaosserve.degrade_step) ->
      Printf.printf
        "rate %6.1f: ladder %d good (%d degraded, %d shed; %.2f/horizon-s, \
         %.2f/makespan-s) vs shed-only %d good (%d shed; %.2f/horizon-s, \
         %.2f/makespan-s)\n"
        s.Chaosserve.ds_rate s.Chaosserve.ds_ladder_good
        s.Chaosserve.ds_ladder_degraded s.Chaosserve.ds_ladder_shed
        s.Chaosserve.ds_ladder_good_per_horizon
        s.Chaosserve.ds_ladder_good_per_makespan s.Chaosserve.ds_shed_only_good
        s.Chaosserve.ds_shed_only_shed
        s.Chaosserve.ds_shed_only_good_per_horizon
        s.Chaosserve.ds_shed_only_good_per_makespan)
    d.Chaosserve.dg_steps;
  let json = Chaosserve.degrade_to_json d in
  let oc =
    try open_out out
    with Sys_error msg ->
      Printf.eprintf "cannot write %s: %s\n" out msg;
      exit 1
  in
  output_string oc json;
  close_out oc;
  (match Chaosserve.degrade_validate json with
  | Ok n -> Printf.printf "%s: schema ok (%d fields)\n" out n
  | Error missing ->
      Printf.eprintf "%s: schema validation FAILED; missing: %s\n" out
        (String.concat ", " missing);
      exit (Report.code_of_label "serve-degrade"));
  if d.Chaosserve.dg_violations > 0 then begin
    Printf.eprintf "degrade: %d invariant violations\n"
      d.Chaosserve.dg_violations;
    exit (Report.code_of_label "serve-degrade")
  end;
  if d.Chaosserve.dg_regressed then begin
    Printf.eprintf
      "degrade: ladder good answers per horizon second fell below the \
       shed-only baseline\n";
    exit (Report.code_of_label "serve-degrade")
  end;
  Printf.printf "degrade ok: ladder >= shed-only at every load step\n";
  exit 0

let main wl sv out validate verify_determinism chaos degrade_bench =
  if chaos then run_chaos wl sv;
  if degrade_bench then run_degrade wl out;
  let t0 = Unix.gettimeofday () in
  let result, m, v = Servebench.run_verified wl sv in
  let wall_s = Unix.gettimeofday () -. t0 in
  let runs = 2 + (if sv.Server.sv_jobs > 1 then 1 else 0) in
  let executed =
    m.Servebench.m_served + m.Servebench.m_degraded
    + m.Servebench.m_recovered + m.Servebench.m_failed
  in
  let wall_rps = float_of_int (executed * runs) /. Float.max wall_s 1e-9 in
  Printf.printf
    "%d requests: %d served, %d degraded, %d recovered, %d failed, %d shed \
     (%.1f%%) in %d batches\n"
    m.Servebench.m_requests m.Servebench.m_served m.Servebench.m_degraded
    m.Servebench.m_recovered m.Servebench.m_failed m.Servebench.m_shed
    (100. *. m.Servebench.m_shed_rate)
    m.Servebench.m_batches;
  Printf.printf
    "latency p50/p99/p999: %.4f/%.4f/%.4f s; %.1f req/s virtual; %.0f \
     req/s wall (%d runs, %.2f s)\n"
    m.Servebench.m_p50 m.Servebench.m_p99 m.Servebench.m_p999
    m.Servebench.m_rps wall_rps runs wall_s;
  if m.Servebench.m_ladder_transitions > 0 || m.Servebench.m_breaker_opens > 0
  then
    Printf.printf
      "ladder: %d transitions, %d overload sheds; breakers: %d opens\n"
      m.Servebench.m_ladder_transitions m.Servebench.m_shed_overload
      m.Servebench.m_breaker_opens;
  List.iter
    (fun viol -> Format.eprintf "%a@." Report.pp_violation viol)
    result.Server.violations;
  let json = Servebench.to_json wl sv m v in
  let oc =
    try open_out out
    with Sys_error msg ->
      Printf.eprintf "cannot write %s: %s\n" out msg;
      exit 1
  in
  output_string oc json;
  close_out oc;
  Printf.printf "%s: digest %016Lx\n" out v.Servebench.v_digest;
  if validate then begin
    match Servebench.validate json with
    | Ok n -> Printf.printf "schema ok (%d fields)\n" n
    | Error missing ->
        Printf.eprintf "schema validation FAILED; missing: %s\n"
          (String.concat ", " missing);
        exit 2
  end;
  if verify_determinism then begin
    if not v.Servebench.v_replay_identical then begin
      Printf.eprintf
        "determinism FAILED: replay with the same configs diverged\n";
      exit 3
    end;
    if not v.Servebench.v_jobs_identical then begin
      Printf.eprintf "determinism FAILED: jobs-1 and jobs-%d diverged\n"
        sv.Server.sv_jobs;
      exit 3
    end;
    Printf.printf "determinism ok: replay identical, jobs-1 = jobs-%d\n"
      sv.Server.sv_jobs
  end;
  (* Wall-clock throughput is load-dependent where everything above is
     not: on a single-core host a slow run is expected scheduling
     starvation, so it only warrants a note; with two or more cores it
     is a genuine regression (same convention as altcheck bench). *)
  let cores = Parallel.default_jobs () in
  if wall_rps < wall_rps_floor then
    if cores < 2 then
      Printf.printf
        "note: %.0f req/s wall < %.0f on a %d-core host (not a failure)\n"
        wall_rps wall_rps_floor cores
    else begin
      Printf.eprintf
        "throughput validation FAILED: %.0f req/s wall < %.0f with %d \
         cores available\n"
        wall_rps wall_rps_floor cores;
      exit 4
    end;
  exit (if result.Server.violations = [] then 0 else 1)

let () =
  let doc = "Serve a deterministic open-loop request stream of alt-blocks" in
  let out =
    Arg.(
      value
      & opt string "BENCH_serve.json"
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Where to write the record.")
  in
  let validate =
    Arg.(
      value & flag
      & info [ "validate" ]
          ~doc:
            "After writing, re-check the record for every schema field \
             (used by the $(b,@serve-smoke) alias).")
  in
  let verify_determinism =
    Arg.(
      value & flag
      & info [ "verify-determinism" ]
          ~doc:
            "Fail unless the replay digest and the jobs-1 digest both \
             match the run.")
  in
  let chaos =
    Arg.(
      value & flag
      & info [ "chaos" ]
          ~doc:
            "Run the chaos-serve campaign instead: faults x overload with \
             the ladder, breakers, sanitizer and audits on, then replay \
             and jobs-diff it. Uses $(b,--seed), $(b,--requests), \
             $(b,--rate) and $(b,--jobs); exits with the $(b,serve-chaos) \
             registry code on failure.")
  in
  let degrade_bench =
    Arg.(
      value & flag
      & info [ "degrade-bench" ]
          ~doc:
            "Run the degradation-ladder benchmark instead: ladder vs \
             shed-only goodput under ramped overload, written to $(b,-o) \
             (default BENCH_serve.json — pass -o BENCH_degrade.json). \
             Exits with the $(b,serve-degrade) registry code on \
             regression.")
  in
  let info = Cmd.info "altserve" ~version:"1.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.v info
          Term.(
            const main $ wl_term $ sv_term $ out $ validate
            $ verify_determinism $ chaos $ degrade_bench)))
