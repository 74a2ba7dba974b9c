(** Site-failure fuzzing: supervised blocks under crashing and partitioning
    failure domains.

    {!Fuzz} attacks messages and processes; this module attacks whole
    {e sites}. Each cell builds a five-site topology ({!site_names}),
    spreads five consensus voters one per site, runs the scenario's block
    under {!Concurrent.run_supervised} (so the coordinator itself may die
    and recover), and injects site crashes and partitions scheduled from
    the plan seed ({!Faultplan.crash_site}, {!Faultplan.partition_sites}).

    The checkers are epoch-aware: at most one [Sync_won] per incarnation
    epoch, exactly one committed result across all epochs (a failed or
    degraded block commits none and names no winner), transparency of any
    selected result against {!Invariants.sequential_reference} compared on
    the {e final} surviving space ([sr_space]), honest failure when a voter
    majority is lost, per-child exit accounting across every incarnation,
    and agreement between the supervised report, the trace, and the
    topology. Every cell is deterministic in (scenario, campaign, policy,
    seed); [~verify:true] re-runs each cell and compares byte-for-byte. *)

(** A named, seed-parameterised site-fault plan. *)
type campaign = {
  sg_name : string;
  sg_doc : string;
  plan : seed:int -> Faultplan.t;
  sg_majority_crash : bool;
      (** The campaign removes a voter majority before any alternative can
          synchronise: a non-degraded [Selected] outcome is flagged as a
          phantom winner. *)
}

val site_names : string list
(** The fixed topology: [s0] (coordinator and its children) .. [s4]. *)

val default_campaigns : campaign list
(** [crash-minority], [crash-coordinator], [partition-minority],
    [partition-quorum-loss], [crash-majority]. *)

val default_policies : Concurrent.policy list
(** 5-node consensus with retry/backoff, failing and degrading variants. *)

val default_scenarios : Invariants.scenario list
(** The sourceless {!Invariants.default_scenarios} (a restarted coordinator
    must not re-read consumed device input). *)

(** One cell of the site matrix. *)
type cell = {
  sf_scenario : Invariants.scenario;
  sf_campaign : campaign;
  sf_policy : Concurrent.policy;
  sf_seed : int;
}

val cells :
  ?seeds:int ->
  ?scenarios:Invariants.scenario list ->
  ?campaigns:campaign list ->
  ?policies:Concurrent.policy list ->
  unit ->
  cell array
(** The matrix in canonical order: scenarios, then campaigns, then
    policies, then seeds in [1..seeds] (default 3). *)

val describe_cell : cell -> string
(** ["scenario/campaign/policy/seed N"] — the replay coordinates. *)

(** One finished supervised execution under a site campaign. *)
type run = {
  sf_engine : Engine.t;
  sf_sites : Sites.t;
  sf_sr : int Concurrent.supervised_report;
  sf_cell : cell;
  sf_alts_count : int;
  sf_sanitizer : Sanitizer.t option;
      (** Present when the cell ran with [~sanitize:true]. *)
}

val run_cell : ?sanitize:bool -> cell -> run
(** Fresh engine, topology, plan and scenario state; the block run to
    quiescence under {!Concurrent.run_supervised}. With [sanitize] the
    online {!Sanitizer} watches the whole execution. *)

val check : run -> Report.violation list
(** The epoch-aware checkers described above. *)

val summary : run -> string
(** Deterministic one-line digest (outcome, epoch, incarnations,
    recoveries, crashed sites, accounting) — the determinism contract's
    witness. *)

type result = {
  cells_run : int;
  violations : Report.violation list;  (** In cell order. *)
  lines : string list;  (** {!summary} of every cell, in cell order. *)
  mismatches : string list;
      (** Cells whose re-run diverged ([~verify:true] only). *)
  first_failing : cell option;
      (** Earliest failing cell: minimal reproduction coordinates. *)
}

val run :
  ?jobs:int ->
  ?seeds:int ->
  ?scenarios:Invariants.scenario list ->
  ?campaigns:campaign list ->
  ?policies:Concurrent.policy list ->
  ?verify:bool ->
  ?sanitize:bool ->
  unit ->
  result
(** Run the whole matrix, fanned over [jobs] domains via the persistent
    shared pool of {!Parallel.map_indexed_shared} (results in cell order
    for any [jobs]). With
    [verify] each cell executes twice and the digests and violations are
    compared byte-for-byte. With [sanitize] every cell runs under the
    online {!Sanitizer}, cross-checked against the epoch-aware post-mortem
    checkers. *)
