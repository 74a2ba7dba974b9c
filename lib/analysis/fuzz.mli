(** Fault-injection fuzzing: the invariant sweep under adversarial
    campaigns.

    The clean sweep ({!Invariants.run_matrix}) shows the paper's invariants
    hold on healthy executions; this module re-runs the same scenarios and
    checkers with a {!Faultplan} installed — dropped, duplicated, delayed
    and reordered consensus messages, crashed voters, killed children,
    timeout storms — across a campaign x policy x seed matrix. A faulted
    execution may honestly {e fail} (availability is allowed to suffer),
    but every invariant the checkers can still judge — at-most-once
    selection, transparency of any selected result, world soundness,
    elimination and accounting — must hold.

    Everything is deterministic: a cell is fully identified by
    (scenario, campaign, policy, seed), and re-running it produces a
    byte-identical summary line and violation report. {!run} can verify
    that contract on every cell ([~verify:true]). *)

(** A named, seed-parameterised fault plan. *)
type campaign = {
  cg_name : string;
  cg_doc : string;
  plan : seed:int -> Faultplan.t;
      (** The plan for one cell; [seed] is the cell seed, so each seed
          explores a different probabilistic footprint of the same
          campaign. *)
}

val default_campaigns : campaign list
(** [drop-replies], [drop-requests], [dup-replies], [reorder-consensus],
    [delay-storm], [voter-crash], [child-kill]. *)

val default_policies : Concurrent.policy list
(** Fuzzing-oriented policies: 3-node consensus with retry/backoff and
    [Fail_block], the same with [Sequential_fallback] (infinite and finite
    [alt_wait] deadlines), and a local-latch control row. *)

(** One cell of the fuzz matrix. *)
type cell = {
  fc_scenario : Invariants.scenario;
  fc_campaign : campaign;
  fc_policy : Concurrent.policy;
  fc_seed : int;
}

val cells :
  ?seeds:int ->
  ?scenarios:Invariants.scenario list ->
  ?campaigns:campaign list ->
  ?policies:Concurrent.policy list ->
  unit ->
  cell array
(** The matrix in canonical order: scenarios outermost, then campaigns,
    then policies, then seeds in [1..seeds] (default 5). *)

val run_cell :
  ?sanitize:bool -> cell ->
  Invariants.run * Report.violation list
(** One faulted, checked execution ({!Invariants.run_checked} with the
    campaign's plan installed; [sanitize] as there). *)

val summary : cell -> Invariants.run -> string
(** A deterministic one-line digest of the cell's execution: outcome,
    degradation, attempts, injection count, message and CPU accounting.
    Byte-equal across re-runs of the same cell — the determinism
    contract's witness. *)

type result = {
  cells_run : int;
  violations : Report.violation list;  (** In cell order. *)
  lines : string list;  (** {!summary} of every cell, in cell order. *)
  mismatches : string list;
      (** Cells whose re-run diverged ([~verify:true] only; empty
          otherwise). Any entry is a broken determinism contract. *)
  first_failing : cell option;
      (** The earliest cell (in canonical matrix order) with a violation:
          the minimal reproduction coordinates. *)
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
(** Run the whole matrix, fanned over [jobs] domains (default 1) via the
    shared pool of {!Parallel.map_indexed_shared} — results are in cell
    order for any [jobs].
    With [verify] (default false) each cell is executed twice and the
    summaries and violation reports compared. With [sanitize] every cell
    runs under the online {!Sanitizer}, cross-checked against the
    post-mortem oracle; agreement leaves the report byte-identical. *)

val describe_cell : cell -> string
(** ["scenario/campaign/policy/seed N"] — the replay coordinates. *)
