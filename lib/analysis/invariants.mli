(** The paper's invariants, checked against whole executions.

    Each checker consumes a finished run of {!Concurrent.run_toplevel} —
    engine, trace, report — and verifies one family of properties from
    Smith & Maguire's transparency argument:

    - {!check_at_most_once}: exactly one alternative wins the
      synchronisation, every other synchroniser is told it is too late,
      and the winner's state is absorbed exactly once (section 3.2);
    - {!check_transparency}: the surviving address space, result value and
      source output are identical to a fresh {e sequential} execution of
      the winning alternative alone (section 3);
    - {!check_world}: no process accepted a message whose sending predicate
      conflicts with its own, fates are immutable, and falsified worlds
      were eliminated (sections 3.3-3.4);
    - {!check_elimination}: every spawned alternative exits exactly once,
      only the winner succeeds, and synchronisation losers abort
      (section 3.2.1);
    - {!check_accounting}: the report's [wasted_cpu], [sync_messages] and
      [child_cow_copies] reconcile with the engine's CPU ledger, the
      message trace and the frame store (section 4).

    {!check_all} additionally runs {!Race.check_isolation} and
    {!Race.check_sources}. *)

(** A checkable workload: how to seed the parent's state and build the
    block's alternatives, deterministically from a seed. *)
type scenario = {
  sc_name : string;
  uses_source : bool;
  source_script : string list;  (** Input fed to the device, if any. *)
  prepare : Engine.t -> Address_space.t -> unit;
      (** Seed the parent's address space before the block runs. *)
  alts :
    Engine.t -> seed:int -> source:Source.t option -> int Alternative.t list;
      (** Build the alternatives. Must be deterministic in [seed] (use
          {!Rng}), so the transparency checker can re-execute the winner
          in a fresh engine. *)
}

(** One finished, checkable execution. *)
type run = {
  engine : Engine.t;  (** Quiescent after the block. *)
  space : Address_space.t;  (** The parent's (preserved) address space. *)
  source : Source.t option;
  report : int Concurrent.report;
  policy : Concurrent.policy;
  scenario : scenario;
  seed : int;
  alts_count : int;
  sanitizer : Sanitizer.t option;
      (** Present when the run executed with [~sanitize:true]: the online
          monitor that watched the execution, flags included. *)
}

val run_scenario :
  ?faults:(Engine.t -> unit) ->
  ?sanitize:bool ->
  scenario -> policy:Concurrent.policy -> seed:int -> run
(** Execute the scenario under the policy: fresh engine
    ({!Cost_model.att_3b2}), tracked parent space, block run to
    quiescence via {!Concurrent.run_toplevel}. [faults] (e.g.
    [Faultplan.install plan]) is applied to the fresh engine before
    anything runs, so an injection campaign covers the whole execution;
    the transparency checker's sequential reference runs are always
    fault-free. With [~sanitize:true] (default false) a {!Sanitizer} is
    attached before anything spawns and watches the whole execution
    online. *)

val sequential_reference :
  scenario ->
  seed:int ->
  indices:int list ->
  int Alt_block.outcome option * Address_space.t * Source.t option
(** Execute the scenario's alternatives whose indices appear in [indices]
    {e sequentially} (first-fit, {!Alt_block.run_first}) in a fresh,
    fault-free engine, and return the outcome together with the resulting
    address space and source device. This is the oracle the transparency
    checkers compare a concurrent execution against; {!Sitefuzz} reuses it
    for supervised (coordinator-recovery) runs. *)

val check_at_most_once : run -> Report.violation list
val check_transparency : run -> Report.violation list
val check_world : run -> Report.violation list
val check_elimination : run -> Report.violation list
val check_accounting : run -> Report.violation list

val check_all : run -> Report.violation list
(** All five checkers plus the {!Race} checkers, concatenated. *)

val run_checked :
  ?faults:(Engine.t -> unit) ->
  ?sanitize:bool ->
  scenario ->
  policy:Concurrent.policy ->
  seed:int ->
  run * Report.violation list
(** {!run_scenario} followed by {!check_all}. The checkers are
    fault-aware: fault-caused block failures and policy-sanctioned
    sequential degradations are excused, but a {e selected} result must
    satisfy every invariant — faults included. With [~sanitize:true] the
    online sanitizer watches the run and is then cross-checked against
    the post-mortem verdict ({!Sanitizer.crosscheck}); agreement adds
    nothing (clean sweeps stay byte-identical), divergence appends
    {!Report.Sanitizer} violations. *)

val default_scenarios : scenario list
(** [counters] (racing writers over shared pages), [guarded] (one closed
    guard, one failing body), [teletype] (source-device reads and gated
    writes), [all-fail] (every alternative fails). *)

val find_scenario : string -> scenario option
(** Look a default scenario up by [sc_name]. The serving layer resolves
    each request's scenario name through this. *)

val check_report :
  scenario:string ->
  policy:Concurrent.policy ->
  seed:int ->
  'a Concurrent.report ->
  Report.violation list
(** Audit one block report's self-consistency without a trace: winner
    membership and at-most-once shape of the outcome, spawn bookkeeping,
    non-negative cost counters, zero consensus messages under a local
    latch. A sound subset of the replay checkers, cheap enough to run on
    every served request (the serving engines keep trace recording off). *)

val check_supervised_report :
  scenario:string ->
  policy:Concurrent.policy ->
  seed:int ->
  'a Concurrent.supervised_report ->
  Report.violation list
(** {!check_report} on the inner report, plus the recovery bookkeeping:
    one incarnation per recovery plus the original, recoveries fenced to
    consecutive epochs (2, 3, ...), the answering incarnation the last
    one launched (a stale epoch answering through the fence is the
    supervised analogue of a double win), and a decided block names its
    final coordinator. The serving layer audits every [--faults] request
    with this — a [Recovered] verdict must be exactly as trustworthy as
    a [Served] one. *)

val policy_matrix : Concurrent.policy list
(** Every combination of elimination strategy (3) x synchronisation mode
    (local latch, 3-node consensus) x guard placement (4), local
    placement: 24 policies. *)

(** One cell of the sweep matrix. *)
type cell = {
  cell_scenario : scenario;
  cell_policy : Concurrent.policy;
  cell_seed : int;
}

val matrix_cells :
  ?seeds:int ->
  ?scenarios:scenario list ->
  ?policies:Concurrent.policy list ->
  unit ->
  cell array
(** The (scenario, policy, seed in [1..seeds]) matrix in canonical sweep
    order: scenarios outermost, then policies, then seeds (default seeds
    per cell: 5). *)

val run_cells :
  ?jobs:int -> ?sanitize:bool -> cell array ->
  (run * Report.violation list) array
(** {!run_checked} over every cell, fanned out across [jobs] domains
    (default 1) via {!Parallel.map_indexed_shared}. Each cell
    constructs its whole engine-world from scratch, so cells share no
    mutable state (the audit is documented in [invariants.ml]); results
    come back in cell order regardless of [jobs], so a parallel sweep is
    byte-for-byte identical to a sequential one. *)

val run_matrix :
  ?seeds:int ->
  ?scenarios:scenario list ->
  ?policies:Concurrent.policy list ->
  ?jobs:int ->
  ?sanitize:bool ->
  unit ->
  Report.violation list * int
(** Run every (scenario, policy, seed in [1..seeds]) combination (default
    seeds per cell: 5) on [jobs] domains (default 1) and collect all
    violations, in cell order. Returns the violations and the number of
    runs executed. *)
