(** The serving layer's robustness campaigns: the degradation-ladder
    benchmark (ladder vs shed-only good answers under ramped overload,
    committed as [BENCH_degrade.json]) and the chaos-serve campaign
    (faults x overload, audited and determinism-checked). [altserve
    --degrade-bench] and [altserve --faults/--chaos] drive these; their
    failures map to the registry codes [serve-degrade] and
    [serve-chaos] ({!Report.code_of_label}). *)

(** One load step of the degrade benchmark: the same offered stream
    served with the ladder and with the shed-only baseline. "Good" =
    [Served] + [Served_degraded] + [Recovered]. *)
type degrade_step = {
  ds_rate : float;  (** Offered arrivals per virtual second. *)
  ds_ladder_good : int;
  ds_ladder_degraded : int;
  ds_ladder_shed : int;
  ds_ladder_violations : int;
  ds_shed_only_good : int;
  ds_shed_only_shed : int;
  ds_shed_only_violations : int;
  ds_horizon : float;  (** The step's arrival horizon (virtual s). *)
  ds_ladder_good_per_horizon : float;
      (** Good answers per second of the arrival horizon: the figure the
          gate compares. Not a completion rate — the lanes may finish
          long after the last arrival. *)
  ds_shed_only_good_per_horizon : float;
  ds_ladder_good_per_makespan : float;
      (** Good answers per second of the run's own makespan
          ({!Servebench.metrics}[.m_goodput]): the rate the lanes
          actually completed them at. *)
  ds_shed_only_good_per_makespan : float;
}

type degrade_record = {
  dg_seed : int;
  dg_requests_per_step : int;
  dg_lanes : int;
  dg_steps : degrade_step list;
  dg_violations : int;  (** Across every run on both sides. *)
  dg_regressed : bool;
      (** The ladder's good answers per horizon second fell below the
          shed-only baseline's at some step — the regression the
          benchmark gates on. *)
}

val degrade :
  ?requests_per_step:int ->
  ?rates:float list ->
  ?lanes:int ->
  seed:int ->
  unit ->
  degrade_record
(** Ramp the overload (default 250 requests per step at 100/200/400/800
    req/s into 8 lanes) and serve each step twice: ladder on, and the
    shed-only baseline (identical meter, thresholds and hysteresis —
    every rung below full service sheds). The gate compares good answers
    over the step's fixed arrival horizon, so both sides are normalised
    by the same offered load; each side's completion rate over its own
    makespan is reported next to it. *)

val degrade_to_json : degrade_record -> string
(** The committed [BENCH_degrade.json] record (hand-rolled JSON, unique
    keys — the repo's bench idiom). *)

val degrade_validate : string -> (int, string list) result
(** Probe a record for every required field: [Ok count] or
    [Error missing]. *)

val chaos_ok : Server.result -> Servebench.verification -> bool
(** No violations, replay-identical, jobs-1 = jobs-N. *)

val chaos : ?requests:int -> ?rate:float -> ?jobs:int -> seed:int -> unit ->
  Server.result * Servebench.verification
(** Serve an overloaded stream (default 240 requests at 400 req/s into
    8 lanes, ladder on) under the seeded fault campaign
    ([sv_faults = Some seed]: per-batch coordinator crashes and healed
    partitions, supervised recovery, breakers), with the online
    sanitizer attached and every request audited, through
    {!Servebench.run_verified}: the run, its replay, and a one-domain
    re-run when [jobs > 1], compared by digest. *)
