type metrics = {
  m_requests : int;
  m_served : int;
  m_degraded : int;
  m_recovered : int;
  m_failed : int;
  m_shed : int;
  m_shed_overload : int;
  m_shed_rate : float;
  m_goodput : float;
  m_breaker_opens : int;
  m_ladder_transitions : int;
  m_p50 : float;
  m_p99 : float;
  m_p999 : float;
  m_makespan : float;
  m_rps : float;
  m_batches : int;
  m_occupancy : int array;
  m_violations : int;
}

let metrics_of (sv : Server.config) (r : Server.result) =
  let n = Array.length r.Server.responses in
  let latencies =
    Array.of_list
      (Array.fold_right
         (fun (rs : Server.response) acc ->
           match rs.Server.rs_verdict with
           | Server.Rejected _ -> acc
           | _ -> rs.Server.rs_latency :: acc)
         r.Server.responses [])
  in
  let pct p = if latencies = [||] then 0. else Stats.percentile latencies ~p in
  let makespan =
    Array.fold_left
      (fun acc (rs : Server.response) -> Float.max acc rs.Server.rs_completion)
      0. r.Server.responses
  in
  let good = r.Server.served + r.Server.degraded + r.Server.recovered in
  let executed = good + r.Server.failed in
  let occupancy = Array.make (max 1 sv.Server.sv_max_batch) 0 in
  Array.iter
    (fun (bs : Server.batch_stat) ->
      let k = min bs.Server.bs_size (Array.length occupancy) - 1 in
      occupancy.(k) <- occupancy.(k) + 1)
    r.Server.batches;
  {
    m_requests = n;
    m_served = r.Server.served;
    m_degraded = r.Server.degraded;
    m_recovered = r.Server.recovered;
    m_failed = r.Server.failed;
    m_shed = r.Server.shed;
    m_shed_overload = r.Server.shed_overload;
    m_shed_rate = (if n = 0 then 0. else float_of_int r.Server.shed /. float_of_int n);
    m_goodput = (if makespan > 0. then float_of_int good /. makespan else 0.);
    m_breaker_opens = r.Server.breaker_opens;
    m_ladder_transitions = r.Server.ladder_transitions;
    m_p50 = pct 50.;
    m_p99 = pct 99.;
    m_p999 = pct 99.9;
    m_makespan = makespan;
    m_rps = (if makespan > 0. then float_of_int executed /. makespan else 0.);
    m_batches = Array.length r.Server.batches;
    m_occupancy = occupancy;
    m_violations = List.length r.Server.violations;
  }

type verification = {
  v_replay_identical : bool;
  v_jobs_identical : bool;
  v_digest : int64;
}

let run_verified wl (sv : Server.config) =
  let r = Server.run wl sv in
  let d = Server.digest r in
  let replay = Server.digest (Server.run wl sv) in
  let jobs_identical =
    if sv.Server.sv_jobs <= 1 then true
    else Server.digest (Server.run wl { sv with Server.sv_jobs = 1 }) = d
  in
  (r, metrics_of sv r, { v_replay_identical = replay = d;
                         v_jobs_identical = jobs_identical; v_digest = d })

let required_fields =
  [
    "benchmark"; "seed"; "requests"; "rate"; "tenants"; "lanes"; "max_batch";
    "window_s"; "quota_rate"; "quota_burst"; "jobs"; "cores"; "served";
    "degraded"; "recovered"; "failed"; "shed"; "shed_overload"; "shed_rate";
    "goodput_per_s"; "breaker_opens"; "ladder_transitions"; "faults_seed";
    "latency_p50_s"; "latency_p99_s";
    "latency_p999_s"; "makespan_s"; "req_per_sec"; "batches";
    "batch_occupancy"; "violations"; "digest"; "replay_identical";
    "jobs_identical";
  ]

let to_json (wl : Workload.config) (sv : Server.config) (m : metrics)
    (v : verification) =
  let occupancy =
    "["
    ^ String.concat ", "
        (Array.to_list (Array.map string_of_int m.m_occupancy))
    ^ "]"
  in
  String.concat "\n"
    [
      "{";
      Printf.sprintf "  %S: %S," "benchmark" "alt-serve";
      Printf.sprintf "  %S: %d," "seed" wl.Workload.wl_seed;
      Printf.sprintf "  %S: %d," "requests" wl.Workload.wl_requests;
      Printf.sprintf "  %S: %.1f," "rate" wl.Workload.wl_rate;
      Printf.sprintf "  %S: %d," "tenants" wl.Workload.wl_tenants;
      Printf.sprintf "  %S: %d," "lanes" sv.Server.sv_lanes;
      Printf.sprintf "  %S: %d," "max_batch" sv.Server.sv_max_batch;
      Printf.sprintf "  %S: %.4f," "window_s" sv.Server.sv_window;
      Printf.sprintf "  %S: %.1f," "quota_rate" sv.Server.sv_quota_rate;
      Printf.sprintf "  %S: %d," "quota_burst" sv.Server.sv_quota_burst;
      Printf.sprintf "  %S: %d," "jobs" sv.Server.sv_jobs;
      Printf.sprintf "  %S: %d," "cores" (Parallel.default_jobs ());
      Printf.sprintf "  %S: %d," "served" m.m_served;
      Printf.sprintf "  %S: %d," "degraded" m.m_degraded;
      Printf.sprintf "  %S: %d," "recovered" m.m_recovered;
      Printf.sprintf "  %S: %d," "failed" m.m_failed;
      Printf.sprintf "  %S: %d," "shed" m.m_shed;
      Printf.sprintf "  %S: %d," "shed_overload" m.m_shed_overload;
      Printf.sprintf "  %S: %.4f," "shed_rate" m.m_shed_rate;
      Printf.sprintf "  %S: %.1f," "goodput_per_s" m.m_goodput;
      Printf.sprintf "  %S: %d," "breaker_opens" m.m_breaker_opens;
      Printf.sprintf "  %S: %d," "ladder_transitions" m.m_ladder_transitions;
      Printf.sprintf "  %S: %d," "faults_seed"
        (match sv.Server.sv_faults with Some s -> s | None -> -1);
      Printf.sprintf "  %S: %.6f," "latency_p50_s" m.m_p50;
      Printf.sprintf "  %S: %.6f," "latency_p99_s" m.m_p99;
      Printf.sprintf "  %S: %.6f," "latency_p999_s" m.m_p999;
      Printf.sprintf "  %S: %.6f," "makespan_s" m.m_makespan;
      Printf.sprintf "  %S: %.1f," "req_per_sec" m.m_rps;
      Printf.sprintf "  %S: %d," "batches" m.m_batches;
      Printf.sprintf "  %S: %s," "batch_occupancy" occupancy;
      Printf.sprintf "  %S: %d," "violations" m.m_violations;
      Printf.sprintf "  %S: %S," "digest" (Printf.sprintf "%016Lx" v.v_digest);
      Printf.sprintf "  %S: %b," "replay_identical" v.v_replay_identical;
      Printf.sprintf "  %S: %b" "jobs_identical" v.v_jobs_identical;
      "}";
      "";
    ]

let validate contents =
  let has_field f =
    (* Keys are unique in the emitted object, so a substring probe of the
       quoted key is a sufficient smoke check (same idiom as altcheck
       bench). *)
    let needle = Printf.sprintf "%S:" f in
    let nlen = String.length needle in
    let rec scan i =
      i + nlen <= String.length contents
      && (String.sub contents i nlen = needle || scan (i + 1))
    in
    scan 0
  in
  match List.filter (fun f -> not (has_field f)) required_fields with
  | [] -> Ok (List.length required_fields)
  | missing -> Error missing
