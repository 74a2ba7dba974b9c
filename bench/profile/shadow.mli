(** A span-instrumented copy of [Server.run], built from the serving
    layer's public calls only.

    [Server.run] is one function with no hooks inside, so the per-layer
    profile cannot time its layers from outside. This module rebuilds
    its three phases — admission and batch plan, per-batch execution
    over [Parallel.map_indexed_shared], the lane timeline — call for
    call, records a {!Span} around each layer call, and assembles the
    same [Server.result]. A copy can drift from the original; {!run}'s
    caller must compare [Server.digest] of the two results (the profile
    refuses a traced run whose digest differs), so the profile can never
    measure a different program than the one the untraced run times. *)

(** Engine and block counters gathered while the batches ran (summed
    over every batch and domain). *)
type counters = {
  mutable blocks : int;  (** [Concurrent.run_toplevel] calls. *)
  mutable events : int;  (** Engine events processed inside those calls. *)
  mutable mailbox_scanned : int;  (** Mailbox slots scanned inside them. *)
  mutable spawned : int;  (** Alternatives spawned ([report.spawned]). *)
  mutable sync_messages : int;
      (** Consensus messages ([report.sync_messages]). *)
  mutable cow_copies : int;
      (** Copy-on-write faults ([report.child_cow_copies]). *)
  mutable frame_allocs : int;  (** Page frames allocated inside those calls. *)
  mutable minor_words : float;  (** Minor words allocated inside them. *)
  mutable selected : int;  (** Blocks whose outcome was [Selected]. *)
  mutable attempted : int;
      (** Alternatives that ran to a verdict ([report.attempted]). *)
  mutable restarts : int;  (** Supervised recoveries ([sr_recoveries]). *)
  mutable breaker_calls : int;  (** [Breaker.allow]/[record_*] calls. *)
  mutable sanitizer_flags : int;  (** Sanitizer violations reported. *)
  mutable audit_violations : int;
      (** Violations the [Invariants] report audits returned. *)
}

(** Phase-1 tallies. *)
type admission = {
  requests : int;
  quota_rejected : int;  (** Shed by a quota class. *)
  controller_shed : int;  (** Shed by the ladder's bottom rung. *)
  transitions : int;  (** Ladder rung changes. *)
  batches : int;
  admitted : int;
}

val run :
  Workload.config -> Server.config -> Server.result * admission * counters
(** Serve the workload like [Server.run], recording spans on every
    domain that takes part (call {!Span.reset} first). *)
