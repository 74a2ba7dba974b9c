(** Execution traces.

    The engine records one {!event} per interesting action; tests assert on
    traces, and the worlds/elimination examples print them. Recording can be
    disabled for long benchmark runs. *)

type event =
  | Spawned of { pid : Pid.t; parent : Pid.t option; name : string }
  | Started of Pid.t
  | Exited of { pid : Pid.t; status : string }
  | Sent of { msg : Message.t }
  | Delivered of { dest : Pid.t; msg : Message.t }
  | Delivered_batch of { sender : Pid.t; dest : Pid.t; count : int }
      (** A channel flush handed [count] messages from one sender's outbox
          to their receiver in a single event-queue event. Emitted (before
          the per-message {!Delivered} events it covers, which all come
          before any receiver accepts one of them) only when
          [count > 1]; a batch of one is indistinguishable from the
          pre-batching engine and is not announced. *)
  | Accepted of { dest : Pid.t; msg : Message.t; dest_pred : Predicate.t }
      (** [dest_pred] is the receiver's predicate {e before} it adopted any
          of the sender's assumptions: the analysis layer audits acceptance
          decisions against it. *)
  | Ignored of { dest : Pid.t; msg : Message.t; reason : string }
  | Split of { original : Pid.t; clone : Pid.t; on : Message.t }
  | Killed of { pid : Pid.t; reason : string }
  | Fate of { pid : Pid.t; fate : Predicate.fate }
  | Fate_deferred of Pid.t
  | Absorbed of { parent : Pid.t; child : Pid.t }
  | Sync_won of { pid : Pid.t; index : int; epoch : int }
      (** [epoch] is the block incarnation that won the latch: 0 for plain
          (unsupervised) blocks, >= 1 when a coordinator watchdog is
          involved ({!Concurrent.run_supervised}). At-most-once is audited
          {e across} epochs: one winner per block, ever. *)
  | Sync_late of { pid : Pid.t; index : int }
  | Injected of { kind : string; pid : Pid.t option; msg : Message.t option }
      (** A fault injection took effect: [kind] is one of ["drop"],
          ["duplicate"], ["delay"], ["reorder"] (message faults, recorded by
          the engine) or ["kill"], ["crash"], ["revive"] (process faults,
          recorded by the fault plan). The analysis layer uses these to tell
          a faulted execution from a clean one. *)
  | Degraded of { parent : Pid.t; reason : string }
      (** An alternative block abandoned speculation and fell back to
          sequential execution ([Concurrent.Sequential_fallback]). *)
  | Site_crashed of { site : string }
      (** A whole site failed: every resident process was killed and
          in-flight messages to or from it were dropped. Individual
          casualties are additionally traced as [Injected {kind="site-kill"}]
          / [Killed]. *)
  | Partitioned of { left : string list; right : string list }
      (** A network partition came up between the two site groups; messages
          crossing the cut are dropped (traced as
          [Injected {kind="partition-drop"}]) until a matching {!Healed}. *)
  | Healed of { left : string list; right : string list }
  | Recovered of { failed : Pid.t; successor : Pid.t; epoch : int }
      (** The coordinator watchdog restarted a dead block coordinator
          [failed] from its checkpoint as [successor], fencing voters to
          [epoch] so the stale incarnation can no longer win. *)
  | Sanitizer_flag of { check : string; pid : Pid.t option; detail : string }
      (** The online sanitizer ({!Sanitizer} in the analysis layer) caught
          an invariant violation {e while it happened}: [check] is the
          {!Report.class_name} of the invariant family, [pid] the process
          caught in the act, and the event's timestamp is the exact virtual
          time of the offence. Never emitted by the engine itself. *)
  | Note of string

type t

val create : ?enabled:bool -> unit -> t
val enabled : t -> bool
val set_enabled : t -> bool -> unit

val live : t -> bool
(** Whether {!record} currently has any effect: recording is enabled or an
    observer is installed. The engine's messaging hot path consults this
    to skip materialising trace-only message values when no one is
    watching; it never changes when a receiver runs. *)

val record : t -> time:float -> event -> unit

val set_observer : t -> (time:float -> event -> unit) option -> unit
(** Install (or clear) an online observer: called on every {!record},
    {e even when recording is disabled}, so a streaming monitor can watch
    an execution whose trace is switched off to bound memory. The observer
    runs after the event is stored; it may itself call {!record} (the
    sanitizer appends {!Sanitizer_flag} events this way) but must guard
    against reacting to its own events. {!replace} and {!clear} do not
    notify the observer: they rewrite history rather than extend it. *)

val events : t -> (float * event) list
(** All recorded events, oldest first. *)

val find_all : t -> f:(event -> bool) -> (float * event) list
val count : t -> f:(event -> bool) -> int
val clear : t -> unit

val replace : t -> (float * event) list -> unit
(** Replace the recorded history wholesale (oldest first). Used by the
    checker's fault-seeding tests to hand the analysis layer a corrupted
    history; not something the engine ever does. *)

val pp_event : Format.formatter -> event -> unit

val event_to_json : time:float -> event -> string
(** One event as a single-line JSON object [{"t":..., "ev":..., ...}]. *)

val to_jsonl : t -> string
(** The whole trace as JSON Lines (one {!event_to_json} line per event,
    oldest first), for inspection and diffing outside the process. *)
