(** Structured views over an execution's event stream.

    The checkers in {!Invariants} ask questions like "how many [Sync_won]
    events does this pid have" or "what was this process's exit status";
    this module answers them from a {!Trace} subscription to the kinds its
    views read, so that each checker reads like the invariant it
    verifies. *)

type t

val attach : Trace.t -> t
(** Subscribe to the trace: the views cover what is recorded from now on,
    whether or not the trace keeps it. Attach before anything spawns. *)

val replay : (float * Trace.event) list -> t
(** What {!attach} would have built from these events (oldest first). *)

(** {2 Process identity} *)

val name_of : t -> Pid.t -> string option
(** Spawn-time name, if the pid was spawned while attached. *)

(** {2 Exits} *)

(** Parsed form of the exit-status strings recorded by the engine. *)
type exit_class =
  | Ok_exit
  | Failed_exit of string
  | Crashed_exit of string
  | Eliminated_exit of string

val classify_exit : string -> exit_class
(** Raises [Invalid_argument] on a string the engine never produces. *)

val exits_of : t -> Pid.t -> string list
(** The raw statuses of every [Exited] event for the pid (a well-formed
    run has at most one). *)

(** {2 Synchronisation and rendezvous} *)

val sync_wins : t -> (Pid.t * int * int) list
(** [(pid, alternative index, epoch)] of every [Sync_won] event, in order.
    Epoch 0 is an unsupervised block; >= 1 an incarnation under coordinator
    recovery ({!Concurrent.run_supervised}). *)

val sync_lates : t -> (Pid.t * int) list
val absorbs : t -> (Pid.t * Pid.t) list
(** [(parent, child)] of every [Absorbed] event. *)

(** {2 Worlds} *)

val accepts : t -> (Pid.t * Predicate.t * Message.t) list
(** [(dest, dest predicate at acceptance, message)] of every [Accepted]
    event. *)

val fates : t -> (Pid.t * Predicate.fate) list
val kills : t -> (Pid.t * string) list
(** [(pid, reason)] of every [Killed] event (dead-world sweep kills; direct
    eliminations appear only as [Exited]). *)

(** {2 Faults} *)

val injections : t -> (string * Pid.t option * Message.t option) list
(** [(kind, pid, msg)] of every [Injected] event: the fault campaign's
    footprint on this execution. *)

val site_crashes : t -> string list
(** Sites that crashed ([Site_crashed] events), in order. *)

val recoveries : t -> (Pid.t * Pid.t * int) list
(** [(failed coordinator, successor, new epoch)] of every [Recovered]
    event, in order. *)

val partitions : t -> int
val heals : t -> int

val faulted : t -> bool
(** At least one injection took effect. Checkers use this to decide whether
    a failure outcome may be excused by the campaign. *)

val count_sent_tag : t -> tag:string -> int
(** How many [Sent] events carried a message with this tag. *)

val count_accept_tag : t -> tag:string -> dest_ok:(Pid.t -> bool) -> int
