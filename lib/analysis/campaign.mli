(** The invariant sweep as campaigns: one cell matrix and one runner.

    A cell runs one scenario under one policy and seed with a campaign's
    {!Faultplan} installed, across a scenario x campaign x policy x seed
    matrix. A campaign is one of three kinds:

    - the {e clean} campaign ({!clean}) installs {!Faultplan.none}: it
      shows the paper's invariants hold on healthy executions;
    - a {e message} campaign drops, duplicates, delays and reorders
      consensus messages, crashes voters, kills children and raises
      timeout storms;
    - a {e site} campaign crashes and partitions whole sites. The cell
      runs on the five-site topology ({!site_names}) with five consensus
      voters spread one per site, under {!Concurrent.run_supervised}, so
      the coordinator itself may die and recover.

    A faulted execution may honestly {e fail} (availability is allowed to
    suffer), but every invariant the checkers can still judge must hold.
    Every cell runs through {!Invariants.run_checked} (with [~sites] for a
    site campaign), so the one post-mortem oracle judges every kind. A
    site campaign that removes a voter majority additionally flags a
    non-degraded [Selected] outcome as a phantom winner.

    Everything is deterministic: a cell is fully identified by
    (scenario, campaign, policy, seed), and re-running it produces a
    byte-identical summary line, violation report and trace. {!run} can
    verify that contract on every cell ([~verify:true]). *)

(** A named, seed-parameterised fault plan. *)
type t = {
  cg_name : string;
  cg_doc : string;
  plan : seed:int -> Faultplan.t;
      (** The plan for one cell; [seed] is the cell seed, so each seed
          explores a different probabilistic footprint of the same
          campaign. *)
  cg_supervised : bool;
      (** A site campaign: the cell runs supervised on the five-site
          topology. Otherwise a message campaign. *)
  cg_majority_crash : bool;
      (** The campaign removes a voter majority before any alternative can
          synchronise: a non-degraded [Selected] outcome is flagged as a
          phantom winner (site campaigns only). *)
}

(** The axes of a campaign matrix. *)
type family = {
  fm_seeds : int;  (** Seeds per (scenario, campaign, policy): [1..fm_seeds]. *)
  fm_scenarios : Invariants.scenario list;
  fm_campaigns : t list;
  fm_policies : Concurrent.policy list;
}

val clean : family
(** 5 seeds over every {!Invariants.default_scenarios}; one campaign,
    [clean], whose plan is {!Faultplan.none}; and the full
    {!Invariants.policy_matrix}. A clean cell runs exactly as
    {!Invariants.run_checked} without [~faults]. *)

val messages : family
(** 5 seeds over every {!Invariants.default_scenarios}; the message
    campaigns [drop-replies], [drop-requests], [dup-replies],
    [reorder-consensus], [delay-storm], [voter-crash], [child-kill]; and
    fuzzing-oriented policies: 3-node consensus with retry/backoff and
    [Fail_block], the same with [Sequential_fallback] (infinite and finite
    [alt_wait] deadlines), and a local-latch control row. *)

val sites : family
(** 3 seeds over the sourceless {!Invariants.default_scenarios} (a
    restarted coordinator must not re-read consumed device input); the site
    campaigns [crash-minority], [crash-coordinator], [partition-minority],
    [partition-quorum-loss], [crash-majority]; and 5-node consensus with
    retry/backoff, failing and degrading variants. *)

val site_names : string list
(** The fixed topology of a site campaign: [s0] (coordinator and its
    children) .. [s4]. *)

(** One cell of the matrix. *)
type cell = {
  cl_scenario : Invariants.scenario;
  cl_campaign : t;
  cl_policy : Concurrent.policy;
  cl_seed : int;
}

val cells : family -> cell array
(** The matrix in canonical order: scenarios outermost, then campaigns,
    then policies, then seeds in [1..fm_seeds].
    @raise Invalid_argument naming the scenario and the campaign when a
    scenario that reads a source device meets a site campaign: a restarted
    coordinator would re-read consumed input. *)

val describe_cell : cell -> string
(** ["scenario/campaign/policy/seed N"] — the replay coordinates. *)

val execute :
  ?record:bool -> ?sanitize:bool -> cell ->
  Invariants.run * Report.violation list
(** Run one cell through {!Invariants.run_checked} (supervised on the
    {!site_names} topology for a site campaign) and add the campaign's
    own phantom-winner check. Deterministic in the cell: a re-execution
    with [~record:true] (default false) records the trace {!run} judged,
    without {!run} keeping or recording any engine. *)

type result = {
  cells_run : int;
  violations : Report.violation list;  (** In cell order. *)
  lines : string list;
      (** One deterministic summary line per cell, in cell order: outcome,
          degradation and message/CPU accounting, plus epochs, recoveries
          and crashed sites for a site campaign — the determinism
          contract's witness. *)
  mismatches : string list;
      (** Cells whose re-run diverged ([~verify:true] only; empty
          otherwise). Any entry is a broken determinism contract. *)
  first_failing : cell option;
      (** The earliest cell (in canonical matrix order) with a violation:
          the minimal reproduction coordinates. *)
}

val run : ?jobs:int -> ?verify:bool -> ?sanitize:bool -> cell array -> result
(** {!execute} every cell, fanned over [jobs] domains (default 1) via the
    shared pool of {!Parallel.map_indexed_shared} — results are in cell
    order for any [jobs]. Each cell builds its whole engine-world from
    scratch, so cells share no mutable state (the audit is recorded in
    [campaign.ml] above [run]), and only a cell's summary line and
    violations outlive it. With [verify] (default false) each cell is
    executed twice and the summaries and violation reports compared byte
    for byte. With
    [sanitize] every cell runs under the online {!Sanitizer},
    cross-checked against its post-mortem checkers; agreement leaves the
    report byte-identical. *)
