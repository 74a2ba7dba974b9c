(* Chaos-serve: the two robustness campaigns the serving layer is gated
   on.

   [degrade] ramps an open-loop overload through the server twice per
   load step — once with the degradation ladder, once with the
   shed-only baseline (same meter, same thresholds, every rung below
   full service sheds) — and records good answers at each step, per
   second of the arrival horizon and per second of each run's own
   makespan. The ladder must never do worse: at every step its good
   answers per horizon second are >= the baseline's,
   with zero invariant violations on either side. The record is
   committed as BENCH_degrade.json.

   [chaos] serves an overloaded stream under a seeded fault campaign
   (coordinator crashes and healed partitions mid-consensus, per
   batch), with the ladder, the breakers, the online sanitizer and the
   per-request audits all on, and then proves the whole thing is still
   a pure function of its seeds: zero violations, replay-identical,
   jobs-1 = jobs-N byte-identical. *)

(* Both campaigns run deliberately hot: few lanes against hundreds of
   arrivals per virtual second, so the controller's meter actually
   climbs the ladder. The tenant quota is opened wide — admission
   refusals here should come from the ladder (the thing under test),
   not the per-tenant buckets. *)
let campaign_workload ~seed ~requests ~rate =
  {
    Workload.default with
    Workload.wl_seed = seed;
    wl_requests = requests;
    wl_rate = rate;
  }

let campaign_server ~lanes ~shed_only =
  {
    Server.default with
    Server.sv_lanes = lanes;
    sv_quota_rate = 1e6;
    sv_quota_burst = 1000;
    sv_ladder =
      {
        (Controller.default ~lanes) with
        Controller.dc_enabled = true;
        dc_shed_only = shed_only;
      };
  }

(* ------------------------------------------------------------------ *)
(* The degradation-ladder benchmark.                                   *)

type degrade_step = {
  ds_rate : float;
  ds_ladder_good : int;
  ds_ladder_degraded : int;
  ds_ladder_shed : int;
  ds_ladder_violations : int;
  ds_shed_only_good : int;
  ds_shed_only_shed : int;
  ds_shed_only_violations : int;
  ds_horizon : float;
  ds_ladder_good_per_horizon : float;
  ds_shed_only_good_per_horizon : float;
  ds_ladder_good_per_makespan : float;
  ds_shed_only_good_per_makespan : float;
}

type degrade_record = {
  dg_seed : int;
  dg_requests_per_step : int;
  dg_lanes : int;
  dg_steps : degrade_step list;
  dg_violations : int;
  dg_regressed : bool;
}

let default_rates = [ 100.; 200.; 400.; 800. ]

let good (r : Server.result) =
  r.Server.served + r.Server.degraded + r.Server.recovered

let degrade ?(requests_per_step = 250) ?(rates = default_rates)
    ?(lanes = 8) ~seed () =
  let steps =
    List.map
      (fun rate ->
        let wl = campaign_workload ~seed ~requests:requests_per_step ~rate in
        let arrivals = Workload.generate wl in
        (* The gate compares good answers over the fixed arrival
           horizon, not each run's own makespan: both sides face the same
           offered load for the same virtual span, so it is the
           apples-to-apples figure — a baseline that sheds almost
           everything would otherwise flatter itself with a short
           makespan. It is not a completion rate: at high offered load
           the lanes finish long after the last arrival. The
           per-makespan figure next to it is that rate. *)
        let horizon =
          Array.fold_left
            (fun acc (rq : Workload.request) ->
              Float.max acc rq.Workload.rq_arrival)
            0. arrivals
        in
        let serve ~shed_only =
          let sv = campaign_server ~lanes ~shed_only in
          let r = Server.run wl sv in
          (r, (Servebench.metrics_of sv r).Servebench.m_goodput)
        in
        let ladder, ladder_per_makespan = serve ~shed_only:false in
        let shed_only, shed_only_per_makespan = serve ~shed_only:true in
        let per_horizon r =
          if horizon > 0. then float_of_int (good r) /. horizon else 0.
        in
        {
          ds_rate = rate;
          ds_ladder_good = good ladder;
          ds_ladder_degraded = ladder.Server.degraded;
          ds_ladder_shed = ladder.Server.shed;
          ds_ladder_violations = List.length ladder.Server.violations;
          ds_shed_only_good = good shed_only;
          ds_shed_only_shed = shed_only.Server.shed;
          ds_shed_only_violations = List.length shed_only.Server.violations;
          ds_horizon = horizon;
          ds_ladder_good_per_horizon = per_horizon ladder;
          ds_shed_only_good_per_horizon = per_horizon shed_only;
          ds_ladder_good_per_makespan = ladder_per_makespan;
          ds_shed_only_good_per_makespan = shed_only_per_makespan;
        })
      rates
  in
  let violations =
    List.fold_left
      (fun acc s -> acc + s.ds_ladder_violations + s.ds_shed_only_violations)
      0 steps
  in
  let regressed =
    List.exists
      (fun s -> s.ds_ladder_good_per_horizon < s.ds_shed_only_good_per_horizon)
      steps
  in
  {
    dg_seed = seed;
    dg_requests_per_step = requests_per_step;
    dg_lanes = lanes;
    dg_steps = steps;
    dg_violations = violations;
    dg_regressed = regressed;
  }

let degrade_required_fields =
  [
    "benchmark"; "seed"; "requests_per_step"; "lanes"; "steps"; "violations";
    "regressed";
  ]

let degrade_to_json (d : degrade_record) =
  let step s =
    String.concat "\n"
      [
        "    {";
        Printf.sprintf "      %S: %.1f," "rate" s.ds_rate;
        Printf.sprintf "      %S: %d," "ladder_good" s.ds_ladder_good;
        Printf.sprintf "      %S: %d," "ladder_degraded" s.ds_ladder_degraded;
        Printf.sprintf "      %S: %d," "ladder_shed" s.ds_ladder_shed;
        Printf.sprintf "      %S: %d," "ladder_violations"
          s.ds_ladder_violations;
        Printf.sprintf "      %S: %d," "shed_only_good" s.ds_shed_only_good;
        Printf.sprintf "      %S: %d," "shed_only_shed" s.ds_shed_only_shed;
        Printf.sprintf "      %S: %d," "shed_only_violations"
          s.ds_shed_only_violations;
        Printf.sprintf "      %S: %.4f," "horizon_s" s.ds_horizon;
        Printf.sprintf "      %S: %.2f," "ladder_good_per_horizon_s"
          s.ds_ladder_good_per_horizon;
        Printf.sprintf "      %S: %.2f," "shed_only_good_per_horizon_s"
          s.ds_shed_only_good_per_horizon;
        Printf.sprintf "      %S: %.2f," "ladder_good_per_makespan_s"
          s.ds_ladder_good_per_makespan;
        Printf.sprintf "      %S: %.2f" "shed_only_good_per_makespan_s"
          s.ds_shed_only_good_per_makespan;
        "    }";
      ]
  in
  String.concat "\n"
    [
      "{";
      Printf.sprintf "  %S: %S," "benchmark" "alt-degrade";
      Printf.sprintf "  %S: %d," "seed" d.dg_seed;
      Printf.sprintf "  %S: %d," "requests_per_step" d.dg_requests_per_step;
      Printf.sprintf "  %S: %d," "lanes" d.dg_lanes;
      Printf.sprintf "  %S: [" "steps";
      String.concat ",\n" (List.map step d.dg_steps);
      "  ],";
      Printf.sprintf "  %S: %d," "violations" d.dg_violations;
      Printf.sprintf "  %S: %b" "regressed" d.dg_regressed;
      "}";
      "";
    ]

let degrade_validate contents =
  match
    Servebench.missing_fields ~required:degrade_required_fields contents
  with
  | [] -> Ok (List.length degrade_required_fields)
  | missing -> Error missing

(* ------------------------------------------------------------------ *)
(* The chaos-serve campaign.                                           *)

let chaos_ok (r : Server.result) (v : Servebench.verification) =
  r.Server.violations = [] && v.Servebench.v_replay_identical
  && v.Servebench.v_jobs_identical

let chaos ?(requests = 240) ?(rate = 400.) ?(jobs = 1) ~seed () =
  let wl = campaign_workload ~seed ~requests ~rate in
  let sv =
    {
      (campaign_server ~lanes:8 ~shed_only:false) with
      Server.sv_faults = Some seed;
      (* A finite budget so a recovery that cannot land in time is an
         honest loss instead of an unbounded retry loop. *)
      sv_deadline = 5.0;
      (* Hair-trigger breakers: each batch sees at most a couple of
         coordinator losses, and the campaign should exercise the
         open -> route-around -> half-open path, not just count to
         three. *)
      sv_breaker = { Breaker.bk_threshold = 1; bk_cooldown = 0.5 };
      sv_sanitize = true;
      sv_jobs = jobs;
    }
  in
  let r, _, v = Servebench.run_verified wl sv in
  (r, v)
