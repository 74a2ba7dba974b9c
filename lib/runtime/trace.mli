(** Execution traces.

    The engine records one {!event} per interesting action. Whoever reads
    events is a {e subscriber} with a {!mask} of the event kinds it reads.
    The recorder, which keeps {!events}, is the subscriber with every bit
    set, present when the trace was created with [~enabled:true]: tests
    assert on what it keeps, and the worlds/elimination examples and
    [altcheck --dump-trace] print it. A monitor such as the sanitizer or
    the oracle's history subscribes to the few kinds it reads. The engine
    asks {!wants} before it builds an event, so a kind no subscriber reads
    is never built. *)

type event =
  | Spawned of { pid : Pid.t; parent : Pid.t option; name : string }
  | Started of Pid.t
  | Exited of { pid : Pid.t; status : string }
  | Sent of { msg : Message.t }
  | Delivered of { dest : Pid.t; msg : Message.t }
  | Accepted of { dest : Pid.t; msg : Message.t; dest_pred : Predicate.t }
      (** [dest_pred] is the receiver's predicate {e before} it adopted any
          of the sender's assumptions: the analysis layer audits acceptance
          decisions against it. *)
  | Ignored of { dest : Pid.t; msg : Message.t; reason : string }
      (** Removed from the receiver's mailbox unaccepted, for [reason]
          (["dead world"] or ["conflict"]). A deferred message stays
          queued and records nothing. *)
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
(** With the recorder when [enabled] (the default). *)

val reset : t -> unit
(** Drop every recorded event and every subscriber but the recorder: the
    state [create ~enabled] leaves. *)

(** {2 Subscriptions} *)

type mask = int
(** A set of event kinds: one bit per {!event} constructor, combined with
    [lor]. *)

module Kind : sig
  val spawned : mask
  val started : mask
  val exited : mask
  val sent : mask
  val delivered : mask
  val accepted : mask
  val ignored : mask
  val split : mask
  val killed : mask
  val fate : mask
  val fate_deferred : mask
  val absorbed : mask
  val sync_won : mask
  val sync_late : mask
  val injected : mask
  val degraded : mask
  val site_crashed : mask
  val partitioned : mask
  val healed : mask
  val recovered : mask
  val sanitizer_flag : mask
  val note : mask

  val all : mask
  (** Every kind: the recorder's mask. *)
end

val kind : event -> mask
(** The single bit of the event's constructor. *)

val wants : t -> mask -> bool
(** Whether some subscriber reads a kind in the mask: the recorder, if
    the trace has one, or any {!subscribe}d callback. The engine tests
    the kind it is about to build, so an event nobody reads costs one
    branch and no allocation; the answer never changes when a receiver
    runs. *)

type subscription

val subscribe : t -> mask -> (time:float -> event -> unit) -> subscription
(** Call [f] on every {!record}ed event whose kind is in [mask], {e
    whether or not the trace has a recorder}. Subscribers are called in
    subscription order, after the recorder has stored the event. A
    subscriber may itself call {!record} (the sanitizer appends
    {!Sanitizer_flag} events this way): the new event is held until every
    subscriber has seen the current one, so every subscriber sees the
    recorder's stream filtered by its mask, in the recorder's order.
    Raises [Invalid_argument] when called from inside a subscriber, as
    does {!unsubscribe}. *)

val unsubscribe : t -> subscription -> unit

val record : t -> time:float -> event -> unit
(** Hand the event to the recorder and every subscriber whose mask holds
    its kind; a no-op when nobody reads it. *)

val events : t -> (float * event) list
(** All recorded events, oldest first; empty without a recorder. *)

val count : t -> f:(event -> bool) -> int

val pp_event : Format.formatter -> event -> unit

val event_to_json : time:float -> event -> string
(** One event as a single-line JSON object [{"t":..., "ev":..., ...}]. *)

val to_jsonl : t -> string
(** The whole trace as JSON Lines (one {!event_to_json} line per event,
    oldest first), for inspection and diffing outside the process. *)
