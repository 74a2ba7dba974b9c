(** The request-driven serving layer.

    Each {!Workload.request} names an alternative block — scenario,
    policy, seed — and the server answers it with the block's winner and
    an honest cost report, or refuses it with an explicit [Rejected]
    verdict. Admitted requests are batched with {e compatible} jobs
    (same scenario, policy {e and} degradation rung: they share engine
    configuration and effective policy, so one engine serves the whole
    batch) and batches execute on a fixed set of lanes.

    Under overload the server degrades {e deterministically} rather than
    collapsing: a virtual-time admission controller ({!Controller})
    walks each request class down the ladder

    {v consensus -> proven-exclusive elision / local latch ->
       sequential fallback -> shed v}

    and every downgrade is reported honestly in the verdict. Under a
    fault campaign ([sv_faults]) consensus requests run supervised
    ({!Concurrent.run_supervised}): injected coordinator crashes and
    partitions are recovered behind epoch fences within the request's
    deadline and retry budget, per-site circuit breakers ({!Breaker})
    steer placement away from failing sites, and recovered answers are
    audited by {!Invariants.check_supervised_report} to be exactly as
    trustworthy as first-try ones.

    Determinism contract: the whole pipeline — admission decisions,
    ladder rungs, batch boundaries, fault schedules, breaker state,
    dispatch order, per-request responses — is a pure function of the
    workload and server configs; every signal the controller and the
    breakers consume is virtual-time, never wall-clock. The run is one
    pass: planning hands each batch to the domain pool as it closes
    ({!Parallel.pipeline_shared}), and its results are folded into the
    lane timeline on the calling domain in batch order, at most a few
    batches per domain behind the planner. Batches may {e execute} on
    several domains ([sv_jobs]), but each batch builds its entire
    engine-world (sites, fault plan, breakers, sanitizer) from its own
    seed, and planning reads nothing a batch computes, so neither the
    domain count nor the window between plan and fold can change a
    response: [sv_jobs = 1] and [sv_jobs = n] are byte-identical
    ({!digest} equal). The structures batches share are each domain's engine and
    free-frame pool ({!Frame_store}). A batch runs on its domain's
    engine after {!Engine.reset} with the batch's seed, which leaves it
    exactly as a fresh engine, and is reset again as the batch ends, so
    an idle domain's engine holds nothing of its last batch. A job releases the address spaces it
    created once it is audited, and later jobs and batches on that
    domain — of this run or a later one — reuse the frames. Neither can
    be observed: a reused frame is zero-filled and takes the new store's
    next id, so how batches fall on domains, and what ran before, leave
    the digest unchanged. *)

(** Why a request was refused. Both are honest verdicts, not errors —
    the client is told exactly why, and nothing was charged or run. *)
type reject_cause =
  | Quota_exhausted of { tokens : float }
      (** Shed at admission: some applicable quota class held [tokens]
          < 1 (the minimum across tenant, scenario and global buckets —
          the binding constraint). No bucket was charged. *)
  | Overload of { backlog : float }
      (** Shed by the degradation ladder's bottom rung: the class was at
          rung 3 with an estimated [backlog] (virtual seconds of queued
          work per lane) behind it. *)

(** What the server answered. *)
type verdict =
  | Served of { alt : int; value : int }
      (** Full service: the block ran exactly as its policy asked and
          selected alternative [alt] with result [value]. *)
  | Served_degraded of { alt : int; value : int; level : int }
      (** Served from ladder rung [level] (1 = consensus elided to a
          proven-exclusive or local latch, 2 = sequential fallback). The
          answer satisfies at-most-once — degraded, never wrong. *)
  | Recovered of { alt : int; value : int; epochs : int }
      (** Served across a coordinator loss: the supervised block decided
          in epoch [epochs] (> 1) after recovery, behind the voters'
          epoch fence. Audited like any other win — no phantom winner. *)
  | Rejected of reject_cause
  | Failed of string  (** The block genuinely failed; the reason. *)

type response = {
  rs_id : int;  (** The request's [rq_id]. *)
  rs_tenant : int;
  rs_batch : int;  (** Executing batch id; [-1] when rejected. *)
  rs_verdict : verdict;
  rs_completion : float;
      (** Virtual completion time. Rejections complete at arrival. *)
  rs_latency : float;  (** [completion - arrival]; [0.] for rejections. *)
  rs_elapsed : float;  (** The block's own virtual elapsed time. *)
  rs_wasted : float;  (** Speculation's [wasted_cpu] for this block. *)
}

type batch_stat = {
  bs_id : int;
  bs_scenario : string;
  bs_policy : int;
  bs_level : int;  (** The ladder rung the whole batch executed at. *)
  bs_size : int;
  bs_close : float;  (** When the batch closed (full, or window expiry). *)
  bs_start : float;  (** When a lane picked it up. *)
  bs_done : float;  (** [bs_start + overhead + sum of job services]. *)
}

type config = {
  sv_lanes : int;  (** Service lanes (virtual executors). *)
  sv_max_batch : int;  (** Occupancy that closes a batch immediately. *)
  sv_window : float;  (** Max virtual time a batch waits open ([>= 0.]). *)
  sv_quota_rate : float;  (** Per-tenant token refill rate (tokens/s). *)
  sv_quota_burst : int;  (** Per-tenant bucket depth. *)
  sv_scenario_rate : float;
      (** Per-scenario quota class, shared by every tenant ([<= 0.]
          disables it, the default). A request must conform to {e all}
          applicable classes before any is charged
          ({!Quota.admit_all}). *)
  sv_scenario_burst : int;
  sv_global_rate : float;
      (** Whole-server quota class ([<= 0.] disables it, the default). *)
  sv_global_burst : int;
  sv_ladder : Controller.config;
      (** The degradation ladder (disabled by default:
          {!Controller.default} with [dc_enabled = false]). *)
  sv_deadline : float;
      (** Per-request virtual-time budget ([> 0.]), measured on the
          batch engine from block entry ([infinity] = none, the
          default). Threaded into the block's rendezvous wait, its
          consensus retry backoff and the supervised relaunch loop, so
          no retry path can overrun it. *)
  sv_faults : int option;
      (** [Some seed] runs every batch under a seeded fault campaign:
          five named sites, coordinator crashes and healed partitions
          injected mid-consensus (batch id selects the rule, [seed]
          fixes the jitter), consensus requests supervised. [None]
          (default) serves fault-free. *)
  sv_retry_budget : int;
      (** Max supervised relaunches per request (default 2), on top of
          the deadline bound. *)
  sv_breaker : Breaker.config;  (** Per-site circuit breakers. *)
  sv_overhead : float;  (** Fixed per-batch dispatch cost (s). *)
  sv_sanitize : bool;  (** Attach the online sanitizer to each engine. *)
  sv_jobs : int;  (** Domains executing batches. *)
  sv_shards : int;
      (** Exists only for the profiling harness in [bench/profile], whose
          copy of {!run} passes it to {!Engine.create}'s [?shards]; it
          goes when that harness is next edited. {!run} ignores it, 1
          (the default) is the only value the engine accepts, and no
          command-line flag sets it. *)
}

val default : config
(** 64 lanes (a block's mean service time is ~0.2 virtual seconds, so 64
    lanes keep the default 200 req/s open-loop load below saturation),
    batches of up to 8 closing after 0.05s, tenant quota 50 tokens/s
    with burst 10, scenario/global quota classes and the ladder
    disabled, no deadline, no faults, retry budget 2, default breakers,
    0.0005s dispatch overhead, no sanitizer, 1 job. With the defaults
    the pipeline is byte-identical to the pre-ladder server. *)

type result = {
  responses : response array;  (** Indexed by [rq_id]. *)
  batches : batch_stat array;  (** In dispatch order. *)
  violations : Report.violation list;
      (** Per-request report audits ({!Invariants.check_report},
          {!Invariants.check_supervised_report} for supervised runs)
          plus sanitizer flags; empty on a healthy run. *)
  served : int;
  degraded : int;  (** [Served_degraded] answers. *)
  recovered : int;  (** [Recovered] answers. *)
  failed : int;
  shed : int;  (** All [Rejected] verdicts (quota + overload). *)
  shed_overload : int;  (** ... of which the ladder's bottom rung shed. *)
  breaker_opens : int;  (** Circuit-breaker trips across all batches. *)
  ladder_transitions : int;  (** Rung changes across all classes. *)
  peak_pressure : float;  (** Highest pressure the controller saw. *)
}

val run : Workload.config -> config -> result
(** Serve the workload to completion. Both configs are checked first
    ([Invalid_argument], NaN included): the server's bounds, then
    {!Workload.validate}, then the scenario names and policy count.
    Admission then consumes the arrival stream as {!Workload.iter}
    draws it, without building the request array: a refused request's
    [Rejected] response is written into its slot at once, and batch
    windows expire by popping the head of the open batches, which are
    kept in open order, and so in deadline order. *)

val digest : result -> int64
(** FNV-1a over every response's rendered fields — the replay fingerprint
    that every [altserve] run's replay and jobs-1-vs-N checks compare
    ({!Servebench.run_verified}). *)
