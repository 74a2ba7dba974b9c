(** The paper's invariants, checked against whole executions.

    {!check_all} consumes a finished run — engine, event history, report —
    of either {!Concurrent.run_toplevel} or {!Concurrent.run_supervised}, and
    verifies each family of properties from Smith & Maguire's transparency
    argument with the same checkers for both:

    - {b at-most-once}: at most one alternative wins the synchronisation
      in each incarnation epoch, the deciding epoch's win is the reported
      winner, every other synchroniser is told it is too late, and the
      winner's state is absorbed exactly once (section 3.2). Wins and
      rendezvous of a coordinator a recovery fenced off are void;
    - {b transparency}: the surviving address space, result value and
      source output are identical to a fresh {e sequential} execution of
      the winning alternative alone (section 3);
    - {b world}: no process accepted a message whose sending predicate
      conflicts with its own, fates are immutable, falsified worlds were
      eliminated, the reported winner is recorded completed, and nothing
      is left live at quiescence (sections 3.3-3.4);
    - {b elimination}: every spawned alternative exits exactly once, an
      [ok] exit only for a child that won some epoch, and synchronisation
      losers abort (section 3.2.1);
    - {b isolation} and {b sources}: {!Race.check_isolation} and
      {!Race.check_sources}.

    An unsupervised run is additionally held to {b accounting}: the
    report's [wasted_cpu], [sync_messages] and [child_cow_copies]
    reconcile with the engine's CPU ledger, the message trace and the
    frame store (section 4) — sums defined for one incarnation. A
    supervised run is instead held to {!check_supervised_report} and to
    agreement of its [Recovered] and [Site_crashed] events with the
    supervised report and the topology. *)

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
  sc_exclusive : bool;
      (** At most one alternative can ever reach its synchronisation
          point with a result: the proof obligation of
          [Concurrent.run ~exclusive], declared with the scenario. The
          serving layer's rung 1 elides consensus only for these. *)
}

(** One finished, checkable execution. *)
type run = {
  engine : Engine.t;  (** Quiescent after the block. *)
  space : Address_space.t;
      (** The surviving address space: the parent's (preserved) space, or
          a supervised block's [sr_space]. *)
  source : Source.t option;
  report : int Concurrent.report;
      (** The (deciding incarnation's) block report. *)
  supervised : (Sites.t * int Concurrent.supervised_report) option;
      (** Present when the block ran under {!Concurrent.run_supervised}:
          the topology and the supervised report (deciding epoch, final
          coordinator, recoveries). An unsupervised run is epoch 0. *)
  policy : Concurrent.policy;
  scenario : scenario;
  seed : int;
  alts_count : int;
  writes : Race.writes;
      (** Every page write of the run, recorded from before the parent's
          space was seeded: what {!Race.check_isolation} reads. *)
  history : History.t;  (** Attached before anything spawned. *)
  sanitizer : Sanitizer.t option;
      (** Present when the run executed with [~sanitize:true]: the online
          monitor that watched the execution, flags included. *)
}

(** How {!run_block} runs a block: the serving layer's three rungs. *)
type mode =
  | Racing of { exclusive : bool; budget : float }
      (** {!Concurrent.run_toplevel} with [~exclusive] and a deadline
          [budget] seconds after block entry ([infinity]: none). *)
  | Supervised of {
      sites : Sites.t;
      max_restarts : int;
      budget : float;
      avoid_sites : unit -> string list;  (** Asked at block entry. *)
    }  (** {!Concurrent.run_supervised} on [sites]. *)
  | Sequential
      (** Ladder rung 2: {!Alt_block.run_first} in a root process; the
          report is degraded, with no winner, children or sync traffic. *)

(** A block {!run_block} staged and ran. The caller releases [bl_space]
    (and a supervised restart's [sr_space]). *)
type block = private {
  bl_space : Address_space.t;
  bl_source : Source.t option;
  bl_alts : int Alternative.t list;
  mutable bl_report : int Concurrent.report;  (** Set by the run. *)
  mutable bl_supervised : int Concurrent.supervised_report option;
}

val run_block :
  ?sanitizer:Sanitizer.t ->
  ?source_name:string ->
  Engine.t -> scenario -> mode -> policy:Concurrent.policy -> seed:int ->
  block
(** The one runner: the oracle and the server stage and run every block
    through it, so the oracle checks the blocks the server serves. It
    creates the space, seeds it with [prepare] at no charge, creates and
    feeds the source (named [source_name], default ["<scenario>-tty"]),
    lets [sanitizer] observe it, builds the alternatives from [seed] and
    runs them in [mode]. Monitors are attached by the caller. The
    transparency checker's reference shares only the staging. A root
    that dies raises [Failure] in [Racing] and [Sequential] mode, after
    releasing the space. *)

val run_scenario :
  ?record:bool ->
  ?faults:Faultplan.t ->
  ?sites:string list ->
  ?sanitize:bool ->
  ?mode:mode ->
  scenario -> policy:Concurrent.policy -> seed:int -> run
(** A fresh engine ({!Cost_model.att_3b2}) with a {!History} and a
    {!Race.record} attached, then {!run_block} in [mode] (default:
    racing, no exclusivity, no deadline). It records no trace unless
    [~record:true]. With [~sites] the engine gets a {!Sites} topology of
    those names and the block runs [Supervised] on it (the policy must
    use [Consensus]; [~mode] with [~sites], or a [Supervised] [~mode], is
    [Invalid_argument]). [faults] is installed before anything runs, so
    an injection campaign covers the whole execution; the transparency
    checker's reference runs are fault-free. With [~sanitize:true] a
    {!Sanitizer} watches the whole execution online. *)

val check_all : run -> Report.violation list
(** Every checker that applies to the run (see above), concatenated. *)

val run_checked :
  ?record:bool ->
  ?faults:Faultplan.t ->
  ?sites:string list ->
  ?sanitize:bool ->
  ?mode:mode ->
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
    writes), [all-fail] (every alternative fails). [guarded] and
    [all-fail] are [sc_exclusive]: one alternative can succeed, or none;
    [counters] and [teletype] race independent successes. *)

val find_scenario : string -> scenario option
(** Look a default scenario up by [sc_name]. The serving layer resolves
    each request's scenario name through this. *)

val check_report :
  scenario:string ->
  policy:Concurrent.policy ->
  seed:int ->
  'a Concurrent.report ->
  Report.violation list
(** Audit one block report's self-consistency without an event history:
    winner membership and at-most-once shape of the outcome, spawn
    bookkeeping, non-negative cost counters, zero consensus messages under
    a local latch. A sound subset of the replay checkers, cheap enough to
    run on every served request (a served block attaches no {!History}). *)

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
