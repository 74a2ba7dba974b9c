(** The serving benchmark: run the open-loop workload through
    {!Server.run}, verify the determinism contract, and emit
    [BENCH_serve.json].

    Used by [altserve] (the CLI, which the [@serve-smoke] alias runs at
    600 arrivals) and by the chaos-serve campaign, so every entry point
    produces the same record from the same configs. *)

type metrics = {
  m_requests : int;
  m_served : int;
  m_degraded : int;  (** [Served_degraded] answers (ladder rungs 1-2). *)
  m_recovered : int;  (** [Recovered] answers (supervised restarts). *)
  m_failed : int;
  m_shed : int;
  m_shed_overload : int;  (** Ladder bottom-rung sheds, of [m_shed]. *)
  m_shed_rate : float;  (** Shed / total arrivals. *)
  m_goodput : float;
      (** Good answers (served + degraded + recovered) per virtual
          second of makespan — the figure the degrade benchmark
          compares ladder-vs-shed-only on. *)
  m_breaker_opens : int;
  m_ladder_transitions : int;
  m_p50 : float;  (** Latency percentiles over executed (non-shed) *)
  m_p99 : float;  (** requests, virtual seconds. *)
  m_p999 : float;
  m_makespan : float;  (** Last completion time. *)
  m_rps : float;  (** Executed requests per virtual second. *)
  m_batches : int;
  m_occupancy : int array;
      (** [m_occupancy.(k)] = batches that closed with [k+1] jobs;
          length [sv_max_batch]. *)
  m_violations : int;
}

val metrics_of : Server.config -> Server.result -> metrics

type verification = {
  v_replay_identical : bool;
      (** Second run of the same configs produced the same digest. *)
  v_jobs_identical : bool;
      (** [sv_jobs = 1] and [sv_jobs = n] produced the same digest. *)
  v_digest : int64;
}

val run_verified :
  Workload.config -> Server.config -> Server.result * metrics * verification
(** Run the benchmark run plus its two determinism witnesses: a replay
    with identical configs, and a single-domain run when [sv_jobs > 1]
    (with [sv_jobs = 1] the jobs check is vacuously true — there is
    nothing to compare against). *)

val to_json :
  Workload.config -> Server.config -> metrics -> verification -> string
(** The benchmark record, one field per line (the repo's hand-rolled
    JSON idiom: unique keys, so substring probes suffice to validate). *)

val missing_fields : required:string list -> string -> string list
(** The [required] keys that do not appear quoted (["key":]) in a
    record's contents, in [required] order. Keys are unique in every
    record the repo emits, so this substring probe is the schema check
    behind {!validate} and [Chaosserve.degrade_validate]. *)

val validate : string -> (int, string list) result
(** Probe a record's contents for every field of the JSON schema (what
    every [altserve] run and the CI job probe for): [Ok count] or
    [Error missing]. *)
